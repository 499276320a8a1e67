// The "host" object every machine-readable bench report (BENCH_*.json)
// carries: the facts needed to read its rows — core count, CPU model,
// compiler, build type and flags. A bench target that includes this
// header gets PPDE_COMPILER, PPDE_BUILD_TYPE and PPDE_CXX_FLAGS from
// ppde_bench_host() in bench/CMakeLists.txt.
#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "smc/json.hpp"

namespace ppde::bench {

/// `text` as a JSON string literal.
inline std::string json_string(std::string_view text) {
  std::string out;
  smc::append_json_string(out, text);
  return out;
}

/// The "host" object: the facts needed to read the rows.
inline std::string host_json() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu_model = line.substr(colon + 1);
        cpu_model.erase(0, cpu_model.find_first_not_of(" \t"));
      }
      break;
    }
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + json_string(cpu_model) +
         ", \"compiler\": " + json_string(PPDE_COMPILER) +
         ", \"build_type\": " + json_string(PPDE_BUILD_TYPE) +
         ", \"cxx_flags\": " + json_string(PPDE_CXX_FLAGS) + "}";
}

}  // namespace ppde::bench
