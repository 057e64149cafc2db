#pragma once

#include <memory>
#include <vector>

#include "src/library/library.hpp"
#include "src/switchlevel/udfm.hpp"

namespace dfmres {

/// Per-cell-type internal fault universes for a whole library, extracted
/// once (switch-level simulation is deterministic, so every instance of a
/// cell shares the same CellUdfm — paper Section I).
class UdfmMap {
 public:
  explicit UdfmMap(const Library& lib);

  [[nodiscard]] const CellUdfm& of(CellId cell) const {
    return udfm_[cell.value()];
  }

 private:
  std::vector<CellUdfm> udfm_;
};

/// The process-wide UdfmMap of `lib`. The first call for a library
/// extracts it (under a mutex, so concurrent first callers wait and the
/// map is built once); every later call returns the same immutable
/// object. Entries are keyed by the library object's identity, not its
/// contents: a copy of a library gets its own map. An entry is dropped
/// by the first call after its library has died, and the map itself
/// once the last holder lets go.
[[nodiscard]] std::shared_ptr<const UdfmMap> shared_udfm(
    const std::shared_ptr<const Library>& lib);

}  // namespace dfmres
