#include "src/faults/udfm_map.hpp"

#include <algorithm>
#include <mutex>

#include "src/util/trace.hpp"

namespace dfmres {

UdfmMap::UdfmMap(const Library& lib) {
  udfm_.reserve(lib.num_cells());
  for (const CellSpec& cell : lib) udfm_.push_back(extract_cell_udfm(cell));
}

std::shared_ptr<const UdfmMap> shared_udfm(
    const std::shared_ptr<const Library>& lib) {
  struct Entry {
    std::weak_ptr<const Library> lib;
    std::shared_ptr<const UdfmMap> map;
  };
  static std::mutex mutex;
  static std::vector<Entry> entries;

  std::lock_guard<std::mutex> lock(mutex);
  std::erase_if(entries, [](const Entry& e) { return e.lib.expired(); });
  // Owner (control-block) identity: a live weak_ptr pins its control
  // block, so a new library can never alias a registered one.
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const Entry& e) {
                                 return !e.lib.owner_before(lib) &&
                                        !lib.owner_before(e.lib);
                               });
  if (it != entries.end()) return it->map;

  TraceSpan span("faults.udfm_build", "faults");
  span.arg("cells", static_cast<std::uint64_t>(lib->num_cells()));
  auto map = std::make_shared<const UdfmMap>(*lib);
  entries.push_back({lib, map});
  return map;
}

}  // namespace dfmres
