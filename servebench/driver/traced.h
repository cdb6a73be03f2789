// The traced run: replays each workload's inputs in-process through the
// public functions of each layer (sketch, server, stream, persist, dist,
// io) and times those calls from outside, giving the per-layer metrics.
// The served runs stay untraced; the difference between a layer's
// in-process cost here and the served round trip is the rest of the
// stack.
#pragma once

#include "servebench/driver/common.h"

namespace servebench {

RunResult RunTraced(const Args& args);

}  // namespace servebench
