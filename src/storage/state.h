#ifndef CHRONOLOG_STORAGE_STATE_H_
#define CHRONOLOG_STORAGE_STATE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/interpretation.h"

namespace chronolog {

/// The paper's *state* `M[t]` (Section 3.2): the result of projecting out the
/// temporal argument from the snapshot `M(t)` — a finite, function-free
/// database. States are the unit of periodicity detection: a model is
/// periodic with period `(b, p)` when `M[t] = M[t+p]` for all `t >= b + c`.
///
/// Stored canonically (sorted) so equality and hashing are cheap and order-
/// independent.
class State {
 public:
  State() = default;

  /// Extracts `M[t]` from an interpretation.
  static State FromInterpretation(const Interpretation& interp, int64_t t);

  bool empty() const { return facts_.empty(); }
  std::size_t size() const { return facts_.size(); }

  const std::vector<std::pair<PredicateId, Tuple>>& facts() const {
    return facts_;
  }

  /// Order-independent content hash: `size + Σ FactHash(pred, tuple)`. The
  /// combine is commutative so that `Interpretation::SnapshotHash(t)` can
  /// maintain the exact same value incrementally, one fact at a time, without
  /// ever materialising the state.
  std::size_t Hash() const;

  friend bool operator==(const State& a, const State& b) {
    return a.facts_ == b.facts_;
  }
  friend bool operator!=(const State& a, const State& b) { return !(a == b); }

 private:
  std::vector<std::pair<PredicateId, Tuple>> facts_;
};

struct StateHash {
  std::size_t operator()(const State& s) const { return s.Hash(); }
};

/// Materialises `M[from], ..., M[to]` from an interpretation. Detection no
/// longer needs eagerly extracted state vectors (it reads the incrementally
/// maintained snapshot hashes); this helper serves callers that still want
/// the explicit states, e.g. cross-checking tests.
std::vector<State> ExtractStates(const Interpretation& interp, int64_t from,
                                 int64_t to);

/// A window of `g` consecutive states `M[t], ..., M[t+g-1]`. For semi-normal
/// rules (look-back depth `g > 1`) the periodicity condition compares windows
/// rather than single states (Section 3.2).
class StateWindow {
 public:
  StateWindow() = default;

  /// Extracts the window `[t, t + width)` from an interpretation.
  static StateWindow FromInterpretation(const Interpretation& interp,
                                        int64_t t, int64_t width);

  /// Builds the window `[start, start + width)` from already-extracted
  /// states (`states[i]` must be `M[i]`).
  static StateWindow FromStates(const std::vector<State>& states,
                                std::size_t start, std::size_t width);

  std::size_t width() const { return states_.size(); }
  const State& state(std::size_t i) const { return states_[i]; }

  std::size_t Hash() const;

  friend bool operator==(const StateWindow& a, const StateWindow& b) {
    return a.states_ == b.states_;
  }

 private:
  std::vector<State> states_;
};

struct StateWindowHash {
  std::size_t operator()(const StateWindow& w) const { return w.Hash(); }
};

}  // namespace chronolog

#endif  // CHRONOLOG_STORAGE_STATE_H_
