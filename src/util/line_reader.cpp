// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "util/line_reader.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

namespace knnshap {

namespace {

// A buffer above this is returned to the allocator once its line has been
// served, so one long load line does not pin its pages for the session.
constexpr size_t kKeepBytes = size_t{1} << 20;
constexpr size_t kMinRead = size_t{1} << 16;

}  // namespace

LineReader::~LineReader() { std::free(buf_); }

bool LineReader::Next(std::string_view* line) {
  if (begin_ == end_ && capacity_ > kKeepBytes) {
    std::free(buf_);
    buf_ = nullptr;
    capacity_ = begin_ = end_ = 0;
  }
  size_t scanned = begin_;
  for (;;) {
    const void* newline =
        scanned < end_ ? std::memchr(buf_ + scanned, '\n', end_ - scanned) : nullptr;
    if (newline != nullptr) {
      const size_t at = static_cast<size_t>(static_cast<const char*>(newline) - buf_);
      *line = std::string_view(buf_ + begin_, at - begin_);
      begin_ = at + 1;
      return true;
    }
    if (in_->sgetc() == std::streambuf::traits_type::eof()) {
      if (begin_ == end_) return false;
      *line = std::string_view(buf_ + begin_, end_ - begin_);
      begin_ = end_;
      return true;
    }
    // Keep the partial line at the front, then take what the streambuf
    // holds, into at least one read's worth of room; growth doubles.
    if (begin_ > 0) {
      std::memmove(buf_, buf_ + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    scanned = end_;
    const std::streamsize held = in_->in_avail();
    const size_t want = held > 0 ? static_cast<size_t>(held) : 1;
    if (capacity_ - end_ < std::min(want, kMinRead)) {
      const size_t grown = std::max(2 * capacity_, end_ + kMinRead);
      char* moved = static_cast<char*>(std::realloc(buf_, grown));
      if (moved == nullptr) throw std::bad_alloc();
      buf_ = moved;
      capacity_ = grown;
    }
    const size_t take = std::min(want, capacity_ - end_);
    end_ += static_cast<size_t>(in_->sgetn(buf_ + end_, static_cast<std::streamsize>(take)));
  }
}

}  // namespace knnshap
