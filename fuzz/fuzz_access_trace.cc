/// Fuzzes the ODEACC02 access-trace reader — capture files travel
/// between machines (capture on prod, replay in a lab), so the replay
/// side must treat every frame as hostile: lying fixed32 lengths,
/// truncated frames, wrong CRCs, unknown record types.

#include <cstdint>
#include <string_view>

#include "common/access_log.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto trace = ode::obs::ParseAccessTrace(bytes);
  if (trace.ok()) {
    // Walk what the parser accepted; ASan flags any view past the end.
    for (const auto& rec : trace->records) (void)rec;
  }
  return 0;
}
