// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// LineReader — '\n'-terminated lines from a streambuf, for the serving
// loop. A `load` line can be tens of megabytes; std::getline grows its
// string by doubling and copies it at every step. LineReader reads into
// one buffer grown by realloc instead, which glibc satisfies for large
// blocks by remapping pages (mremap), not by copying them, so a line's
// bytes are copied once, out of the streambuf.

#ifndef KNNSHAP_UTIL_LINE_READER_H_
#define KNNSHAP_UTIL_LINE_READER_H_

#include <cstddef>
#include <streambuf>
#include <string_view>

namespace knnshap {

class LineReader {
 public:
  explicit LineReader(std::streambuf* in) : in_(in) {}
  ~LineReader();

  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// The next line, without its '\n', as std::getline splits them: a last
  /// line without a '\n' still counts, and false means the input ended.
  /// The view stays valid until the next call. Takes only what the
  /// streambuf already holds, plus one underflow when that is empty, so
  /// it never waits for bytes past the line it returns; bytes it has
  /// taken past that line are lost if the reader is dropped.
  bool Next(std::string_view* line);

 private:
  std::streambuf* in_;
  char* buf_ = nullptr;
  size_t capacity_ = 0;
  size_t begin_ = 0;  ///< Unread bytes are [begin_, end_).
  size_t end_ = 0;
};

}  // namespace knnshap

#endif  // KNNSHAP_UTIL_LINE_READER_H_
