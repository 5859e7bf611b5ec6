// Internal: constructor of the built-in execution target. The registry
// (target.cpp) references it directly instead of relying on a static
// registrar object — in a static library, a registrar living in an otherwise
// unreferenced translation unit would be dead-stripped and the builtin
// would silently vanish from the registry.
#pragma once

#include <memory>

#include "exec/target.h"

namespace cn::exec::detail {

/// The "simd" kernel family: widest supported ISA level picked per call.
std::unique_ptr<Target> make_simd_target();

}  // namespace cn::exec::detail
