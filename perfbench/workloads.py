"""Seeded input generation for the knnshap_serve benchmark workloads.

Every byte the server receives is a pure function of (workload, seed): the
corpus `load` line, and request number j of the stream. The server never
sees the seed itself.

Rows are 16-dim Gaussian points around one of three fixed label means,
printed with four decimals; the trailing element is the label.
"""

import random

DIM = 16
LABELS = 3
K = 5
HOT_BATCHES = 4
QUERIES_PER_REQUEST = 4
APPEND_EVERY = 8  # ingest-mixed: op j with j % 8 == 7 is an append
APPEND_ROWS = 64
APPROX_ERROR = 0.01

# "period": the request stream repeats its pattern of methods and ops
# every `period` requests.
WORKLOADS = {
    "fullrank": {
        "rows": 200_000,
        "shards": 0,
        "ahead": 200,
        "period": 2,
        # The shard layer does nothing here and no query repeats.
        "flat": ["self.shard_ms", "shard.full_loads", "shard.delta_blocks",
                 "shard.failovers", "engine.cache_hit_ratio"],
    },
    "ingest-mixed": {
        "rows": 200_000,
        "shards": 0,
        "ahead": 2500,
        "period": APPEND_EVERY,
        # No request sorts in full or returns values, so a sort or
        # serialization speed-up should move nothing on the request path.
        "flat": ["self.json_ms", "json.serialize_ms", "json.response_bytes",
                 "self.shard_ms", "shard.full_loads", "shard.delta_blocks",
                 "shard.failovers"],
    },
    "remote-shards": {
        "rows": 50_000,
        "shards": 4,
        "ahead": 300,
        "period": 3,
        # The router's own distance, sort and recursion work is small.
        "flat": ["self.knn_ms", "self.core_ms", "engine.cache_hit_ratio"],
    },
}

# The workloads BENCHMARK.json lists, in its order. ingest-mixed stays
# runnable for claims about the append and result-cache path, but is left
# out of the judged set: two workloads let each run measure twice as long
# in the same total time, which the host's drifting CPU speed needs.
BENCHMARKED = ("fullrank", "remote-shards")


# The label means are fixed, not drawn per seed: how far apart the classes
# lie shapes the values, and so the reply bytes, and per-seed means would
# make the work per request differ from seed to seed.
_means_rng = random.Random("means")
MEANS = [[_means_rng.gauss(0.0, 0.6) for _ in range(DIM)]
         for _ in range(LABELS)]


def _row(rng, means):
    label = rng.randrange(LABELS)
    mean = means[label]
    gauss = rng.gauss
    return "[" + ",".join(["%.4f" % (m + gauss(0.0, 1.0)) for m in mean]) + \
        ",%d]" % label


def _rows(rng, means, count):
    return "[" + ",".join([_row(rng, means) for _ in range(count)]) + "]"


class Inputs:
    """The generated inputs of one (workload, seed) pair."""

    def __init__(self, workload, seed, rows=None):
        """`rows` overrides the workload's corpus size (tests use it)."""
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.means = MEANS
        corpus_rng = random.Random(f"corpus:{seed}")
        self.load_line = (
            '{"op":"load","name":"c","target":"label","rows":' +
            _rows(corpus_rng, self.means, rows or self.spec["rows"]) +
            "}\n").encode()
        self._made = []
        self.hot = [
            _rows(random.Random(f"hot:{seed}:{h}"), self.means,
                  QUERIES_PER_REQUEST) for h in range(HOT_BATCHES)]

    def prepare(self, count):
        """Generates requests 0..count-1 ahead, so that the clients do no
        generating on the timed path."""
        for j in range(len(self._made), count):
            self._made.append(self._make(j))

    def request(self, j):
        """Request number j: (kind, query rows valued, line bytes).

        kind is "value" or "append"; value requests carry "id":j and
        "ordered":false so replies can overtake each other."""
        return self._made[j] if j < len(self._made) else self._make(j)

    def _make(self, j):
        rng = random.Random(f"req:{self.seed}:{j}")
        head = '{"op":"value","id":%d,"ordered":false,"train":"c",' % j
        if self.workload == "fullrank":
            method = "exact" if j % 2 == 0 else "exact-corrected"
            body = ('"method":"%s","k":%d,"include_values":true,"queries":%s}'
                    % (method, K, _rows(rng, self.means, QUERIES_PER_REQUEST)))
            return "value", QUERIES_PER_REQUEST, (head + body + "\n").encode()
        if self.workload == "ingest-mixed":
            if j % APPEND_EVERY == APPEND_EVERY - 1:
                line = '{"op":"append","name":"c","rows":%s}\n' % _rows(
                    rng, self.means, APPEND_ROWS)
                return "append", 0, line.encode()
            if rng.random() < 0.5:
                queries = self.hot[rng.randrange(HOT_BATCHES)]
            else:
                queries = _rows(rng, self.means, QUERIES_PER_REQUEST)
            body = ('"method":"exact","k":%d,"approx_error":%g,'
                    '"include_values":false,"queries":%s}'
                    % (K, APPROX_ERROR, queries))
            return "value", QUERIES_PER_REQUEST, (head + body + "\n").encode()
        # remote-shards: one full-rank exact, then two truncated ones (1:1
        # puts the median in the gap between the two latency modes).
        approx = "" if j % 3 == 0 else '"approx_error":%g,' % APPROX_ERROR
        body = ('"method":"exact","k":%d,%s"include_values":true,"queries":%s}'
                % (K, approx, _rows(rng, self.means, 1)))
        return "value", 1, (head + body + "\n").encode()
