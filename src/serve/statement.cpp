#include "serve/statement.hpp"

#include <map>
#include <memory>
#include <mutex>

#include "compile/lower.hpp"
#include "czerner/construction.hpp"

namespace ppde::serve {

const Statement& statement(int n) {
  struct Slot {
    std::mutex building;  // held for the build; later lookups pass at once
    std::unique_ptr<const Statement> value;
  };
  static std::mutex map_mutex;  // guards the map only, never a build
  static std::map<int, Slot> cache;
  Slot* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(map_mutex);
    slot = &cache[n];
  }
  const std::lock_guard<std::mutex> lock(slot->building);
  if (!slot->value) {
    const auto lowered =
        compile::lower_program(czerner::build_construction(n).program);
    auto built = std::make_unique<Statement>();
    built->conversion = compile::machine_to_protocol(lowered.machine);
    built->fingerprint = built->conversion.protocol.fingerprint();
    built->threshold = czerner::Construction::threshold(n);
    slot->value = std::move(built);
  }
  return *slot->value;
}

}  // namespace ppde::serve
