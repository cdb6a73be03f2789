// The served runs: each starts a real lps_serve, drives it in a closed
// loop (a connection sends its next request when the previous reply has
// arrived) for the run's seconds, checks every answer, and reports the
// end-to-end metrics.
#pragma once

#include "servebench/driver/common.h"

namespace servebench {

RunResult RunHhIngest(const Args& args);
RunResult RunSamplerWindowSpill(const Args& args);
RunResult RunTenantFanin(const Args& args);
RunResult RunEpochFold(const Args& args);

/// Median INGEST round trip, in ns, of `requests` tenant_fanin batches
/// sent over one connection to a fresh lps_serve — the served side of
/// the traced run's transport estimate. Returns a negative value when
/// the server could not be started or a request failed.
double ServedFaninIngestNs(const Args& args, int requests);

}  // namespace servebench
