#include "workload/generators.h"

namespace chronolog::workload {

namespace {

std::string N(int i) { return std::to_string(i); }

}  // namespace

std::string PathProgramSource() {
  return R"(
% Paper, Section 2, Example 2: "there is a path of length at most K
% between X and Y". Inflationary thanks to the third (copy) rule.
path(K, X, X)     :- node(X), null(K).
path(K+1, X, Z)   :- edge(X, Y), path(K, Y, Z).
path(K+1, X, Y)   :- path(K, X, Y).
)";
}

std::string RandomGraphFactsSource(int nodes, int edges, std::mt19937* rng) {
  std::string out = "null(0).\n";
  for (int i = 0; i < nodes; ++i) {
    out += "node(n" + N(i) + ").\n";
  }
  std::uniform_int_distribution<int> pick(0, nodes - 1);
  for (int i = 0; i < edges; ++i) {
    out += "edge(n" + N(pick(*rng)) + ", n" + N(pick(*rng)) + ").\n";
  }
  return out;
}

std::string CycleGraphFactsSource(int nodes) {
  std::string out = "null(0).\n";
  for (int i = 0; i < nodes; ++i) {
    out += "node(n" + N(i) + ").\n";
    out += "edge(n" + N(i) + ", n" + N((i + 1) % nodes) + ").\n";
  }
  return out;
}

std::string SkiScheduleSource(int resorts, int year_len, int winter_len,
                              int holidays) {
  std::string out = R"(
% Paper, Section 2, Example 1 (scaled): flights to ski resorts run every
% 7th day off-season, every 2nd day in winter, daily during holidays.
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
plane(T+1, X) :- plane(T, X), resort(X), holiday(T).
)";
  out += "offseason(T+" + N(year_len) + ") :- offseason(T).\n";
  out += "winter(T+" + N(year_len) + ") :- winter(T).\n";
  out += "holiday(T+" + N(year_len) + ") :- holiday(T).\n";
  for (int r = 0; r < resorts; ++r) {
    out += "resort(resort" + N(r) + ").\n";
    out += "plane(0, resort" + N(r) + ").\n";
  }
  // Interval abbreviations (paper, Section 2, footnote 1): one clause per
  // season instead of one per day.
  out += "winter(0.." + N(winter_len - 1) + ").\n";
  out += "offseason(" + N(winter_len) + ".." + N(year_len - 1) + ").\n";
  out += "holiday(0.." + N(holidays - 1) + ").\n";
  return out;
}

std::string TokenRingSource(const std::vector<int>& ring_lengths) {
  std::string out = "tok(T+1, Y) :- tok(T, X), ring(X, Y).\n";
  for (std::size_t r = 0; r < ring_lengths.size(); ++r) {
    const int len = ring_lengths[r];
    out += "tok(0, r" + N(static_cast<int>(r)) + "_0).\n";
    for (int i = 0; i < len; ++i) {
      out += "ring(r" + N(static_cast<int>(r)) + "_" + N(i) + ", r" +
             N(static_cast<int>(r)) + "_" + N((i + 1) % len) + ").\n";
    }
  }
  return out;
}

std::string BinaryCounterSource(int bits) {
  std::string out = R"(
% Ripple-carry binary counter: the fixed program increments a counter whose
% width is set by the database, so the minimal period is 2^bits — the
% exponential-period witness of Theorem 3.1. bit0/bit1 are mutually
% recursive, so the program is not multi-separable; bits fall back to 0, so
% it is not inflationary either.
time(0).
time(T+1)     :- time(T).
carry(T, X)   :- time(T), first(X).
carry(T, Y)   :- next(X, Y), carry(T, X), bit1(T, X).
nocarry(T, Y) :- next(X, Y), bit0(T, X).
nocarry(T, Y) :- next(X, Y), nocarry(T, X).
bit1(T+1, X)  :- bit0(T, X), carry(T, X).
bit1(T+1, X)  :- bit1(T, X), nocarry(T, X).
bit0(T+1, X)  :- bit1(T, X), carry(T, X).
bit0(T+1, X)  :- bit0(T, X), nocarry(T, X).
)";
  out += "first(b0).\n";
  for (int i = 0; i + 1 < bits; ++i) {
    out += "next(b" + N(i) + ", b" + N(i + 1) + ").\n";
  }
  for (int i = 0; i < bits; ++i) out += "bit0(0, b" + N(i) + ").\n";
  return out;
}

std::string DelayChainSource(const std::vector<int>& delays) {
  std::string out;
  for (std::size_t i = 0; i < delays.size(); ++i) {
    out += "d" + N(static_cast<int>(i)) + "(T+" + N(delays[i]) + ") :- d" +
           N(static_cast<int>(i)) + "(T).\n";
    out += "d" + N(static_cast<int>(i)) + "(0).\n";
  }
  return out;
}

std::string EvenSource() {
  return "even(0).\neven(T+2) :- even(T).\n";
}

std::string SkewedJoinSource(int wide) {
  // One marked entity steps forward each tick; `wide` is a high-fan-out
  // relation whose join with the single-row `narrow` filter keeps exactly
  // one binding alive. Source order (wide before narrow) enumerates all
  // `wide` rows per tick; a selectivity-aware order probes `narrow` first.
  std::string out = "hit(T+1, X) :- hit(T, X), wide(X, Y), narrow(Y).\n";
  out += "hit(0, a).\n";
  for (int i = 0; i < wide; ++i) out += "wide(a, y" + N(i) + ").\n";
  out += "narrow(y0).\n";
  return out;
}

std::string BoundedDatalogSource() {
  return R"(
% Non-recursive (hence strongly bounded) Datalog: two-hop reachability.
hop2(X, Z) :- edge(X, Y), edge(Y, Z).
reach12(X, Y) :- edge(X, Y).
reach12(X, Z) :- hop2(X, Z).
)";
}

std::string TransitiveClosureDatalogSource() {
  return R"(
% Unbounded Datalog: transitive closure (iterations grow with the diameter).
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
)";
}

std::string RandomProgramSource(const RandomProgramOptions& options,
                                std::mt19937* rng) {
  std::uniform_int_distribution<int> coin(0, 1);
  auto rand_int = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };

  // Vocabulary: temporal preds tp0.. (1 or 2 non-temporal arguments),
  // non-temporal preds np0.. (arity 2), constants c0...
  const bool wide = options.temporal_columns == 2;
  std::string out;
  // Declarations pin sorts even when inference would be ambiguous.
  for (int i = 0; i < options.num_temporal_preds; ++i) {
    out += "@temporal tp" + N(i) + "/" + (wide ? "3" : "2") + ".\n";
  }

  for (int r = 0; r < options.num_rules; ++r) {
    // Head: a temporal predicate over (T + offset, X).
    int head_pred = rand_int(0, options.num_temporal_preds - 1);
    int head_offset = rand_int(0, options.max_offset);
    int body_atoms = rand_int(1, options.max_body_atoms);
    std::string body;
    bool head_var_bound = false;
    bool y_bound = false;  // read only for wide heads, which also use Y
    bool time_var_bound = false;
    for (int a = 0; a < body_atoms; ++a) {
      if (!body.empty()) body += ", ";
      bool temporal = coin(*rng) == 0 || a == 0;
      if (temporal) {
        int pred = rand_int(0, options.num_temporal_preds - 1);
        int offset = options.progressive_only
                         ? rand_int(0, head_offset)
                         : rand_int(0, options.max_offset);
        // Alternate between the head entity X and a join entity Y.
        bool use_x = coin(*rng) == 0 || a + 1 == body_atoms;
        std::string entity = use_x ? "X" : "Y";
        if (use_x) head_var_bound = true;
        if (!use_x) y_bound = true;
        if (wide) {
          const bool second_x = coin(*rng) == 0;
          entity += second_x ? ", X" : ", Y";
          if (second_x) head_var_bound = true;
          if (!second_x) y_bound = true;
        }
        time_var_bound = true;
        body += "tp" + N(pred) + "(T" +
                (offset > 0 ? "+" + N(offset) : "") + ", " + entity + ")";
      } else {
        int pred = rand_int(0, options.num_nontemporal_preds - 1);
        body += "np" + N(pred) + "(X, Y)";
        head_var_bound = true;
        y_bound = true;
      }
    }
    if (!head_var_bound || (wide && !y_bound)) body += ", np0(X, Y)";
    if (!time_var_bound) body += wide ? ", tp0(T, X, Y)" : ", tp0(T, X)";
    out += "tp" + N(head_pred) + "(T" +
           (head_offset > 0 ? "+" + N(head_offset) : "") +
           (wide ? ", X, Y) :- " : ", X) :- ") + body + ".\n";
  }

  for (int f = 0; f < options.num_facts; ++f) {
    if (coin(*rng) == 0) {
      out += "tp" + N(rand_int(0, options.num_temporal_preds - 1)) + "(" +
             N(rand_int(0, options.max_fact_time)) + ", c" +
             N(rand_int(0, options.num_constants - 1));
      if (wide) out += ", c" + N(rand_int(0, options.num_constants - 1));
      out += ").\n";
    } else {
      out += "np" + N(rand_int(0, options.num_nontemporal_preds - 1)) + "(c" +
             N(rand_int(0, options.num_constants - 1)) + ", c" +
             N(rand_int(0, options.num_constants - 1)) + ").\n";
    }
  }
  return out;
}

std::string RandomTimeOnlySource(int num_preds, int num_rules, int max_delay,
                                 std::mt19937* rng) {
  auto rand_int = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };
  std::string out;
  for (int i = 0; i < num_preds; ++i) out += "@temporal q" + N(i) + "/2.\n";
  // Mutual-recursion-free: predicate q_i may only read q_j with j < i (or
  // itself, time-only).
  for (int r = 0; r < num_rules; ++r) {
    int head = rand_int(0, num_preds - 1);
    int delay = rand_int(1, max_delay);
    std::string body =
        "q" + N(head) + "(T, X)";  // time-only self occurrence
    int extra = rand_int(0, std::min(head, 2));
    for (int e = 0; e < extra; ++e) {
      int dep = rand_int(0, head > 0 ? head - 1 : 0);
      if (dep == head) continue;
      int off = rand_int(0, delay);
      body += ", q" + N(dep) + "(T" + (off > 0 ? "+" + N(off) : "") + ", X)";
    }
    out += "q" + N(head) + "(T+" + N(delay) + ", X) :- " + body + ".\n";
  }
  // Seed facts for one entity at a few initial times.
  for (int i = 0; i < num_preds; ++i) {
    if (rand_int(0, 2) != 0) {
      out += "q" + N(i) + "(" + N(rand_int(0, max_delay - 1)) + ", e).\n";
    }
  }
  return out;
}

}  // namespace chronolog::workload
