// 2PC participant selection: which processes a coordinated commit spans.
//
// Both executors of the coordinated protocols — the runtime-backed
// Computation and the pure-protocol ScriptReplay — pick a round's
// participants with the one function here, so the two cannot drift apart.
// It works over any number of processes.

#ifndef FTX_SRC_PROTOCOL_COORDINATION_H_
#define FTX_SRC_PROTOCOL_COORDINATION_H_

#include <functional>
#include <vector>

#include "src/protocol/protocol.h"

namespace ftx_proto {

// The peers one process has sent to or received from since its last
// commit: the edges Coordinated Checkpointing's closure follows. Noting a
// peer is O(1); a peer noted twice in a row is kept once, and other repeats
// are harmless to the closure, so the record holds at most one entry per
// send or receive since the last commit.
class CommunicationRecord {
 public:
  void Note(int peer) {
    if (peers_.empty() || peers_.back() != peer) {
      peers_.push_back(peer);
    }
  }
  void Clear() { peers_.clear(); }
  const std::vector<int>& peers() const { return peers_; }

 private:
  std::vector<int> peers_;
};

// What participant selection reads about each process 0..num_processes-1.
struct ParticipantQuery {
  int num_processes = 0;
  // Processes that may take part in a round; unset = every process. An
  // ineligible process neither joins nor links others into the closure.
  std::function<bool(int pid)> eligible;
  // kNdDirty: pid holds non-determinism no commit covers yet.
  std::function<bool(int pid)> has_uncommitted_nd;
  // kCommunicated: pid's record since its last commit.
  std::function<const CommunicationRecord&(int pid)> communicated;
};

// The participants of a coordinated commit `initiator` starts, in
// ascending pid order, initiator excluded:
//   kAll           every eligible process;
//   kNdDirty       every eligible process with uncommitted ND;
//   kCommunicated  the least set holding the initiator and every eligible
//                  process whose record names a member (Koo-Toueg-style
//                  dependency closure).
std::vector<int> CoordinationParticipants(int initiator, CoordinationScope scope,
                                          const ParticipantQuery& query);

}  // namespace ftx_proto

#endif  // FTX_SRC_PROTOCOL_COORDINATION_H_
