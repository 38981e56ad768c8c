#ifndef CHRONOLOG_STORAGE_TUPLE_H_
#define CHRONOLOG_STORAGE_TUPLE_H_

#include <cstddef>
#include <vector>

#include "util/hash.h"
#include "util/symbol_table.h"

namespace chronolog {

/// The non-temporal argument vector of a ground atom. Constants are interned
/// symbols, so a tuple is a plain integer vector. Bulk storage does not hold
/// Tuples: relations keep their rows in columnar form (storage/relation.h)
/// and materialise a Tuple only at API boundaries.
using Tuple = std::vector<SymbolId>;

/// Finalized hash of one time-projected fact `(pred, args)` — the unit of the
/// order-independent snapshot hash. `State::Hash()` and the in-place
/// `Interpretation::SnapshotHash()` both sum these per-fact values
/// (plus the fact count), so the two must use the exact same definition. The
/// span overload hashes `args[0..n)` identically, letting columnar storage
/// feed gathered rows without building a Tuple.
inline std::size_t FactHash(std::size_t pred, const SymbolId* args,
                            std::size_t n) {
  std::size_t seed = n;
  HashCombine(seed, pred);
  return Mix64(HashRange(args, n, seed));
}
inline std::size_t FactHash(std::size_t pred, const Tuple& args) {
  return FactHash(pred, args.data(), args.size());
}

}  // namespace chronolog

#endif  // CHRONOLOG_STORAGE_TUPLE_H_
