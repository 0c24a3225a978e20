// Pure-protocol script replay: runs a scripted computation through one
// protocol instance per process and produces the resulting trace (events,
// commits, coordinated rounds, ND logging flags) without any runtime or
// cost model. This is the harness the Save-work property tests and the
// protocol-space analyses share: any CommitDecision stream a protocol
// produces can be checked against the theory's oracle directly.

#ifndef FTX_SRC_PROTOCOL_SCRIPT_REPLAY_H_
#define FTX_SRC_PROTOCOL_SCRIPT_REPLAY_H_

#include <string_view>

#include "src/protocol/protocol.h"
#include "src/statemachine/random_model.h"
#include "src/statemachine/trace.h"

namespace ftx_proto {

struct ScriptReplayResult {
  ftx_sm::Trace trace;
  int64_t total_commits = 0;
  int64_t coordinated_rounds = 0;
  int64_t logged_events = 0;

  explicit ScriptReplayResult(int num_processes) : trace(num_processes) {}
};

// Replays `script` (a valid execution order; see MakeRandomScript) under
// the named protocol, one instance per process. Coordinated commits emit
// the full 2PC round (prepare/ack messages marked recovery-internal, all
// commits sharing an atomic group); visibles are stamped with the latest
// completed round.
ScriptReplayResult ReplayScript(const std::vector<ftx_sm::ScriptedEvent>& script,
                                int num_processes, std::string_view protocol_name);

}  // namespace ftx_proto

#endif  // FTX_SRC_PROTOCOL_SCRIPT_REPLAY_H_
