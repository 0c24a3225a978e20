#include "src/protocol/coordination.h"

#include "src/common/check.h"

namespace ftx_proto {

std::vector<int> CoordinationParticipants(int initiator, CoordinationScope scope,
                                          const ParticipantQuery& query) {
  const int n = query.num_processes;
  FTX_CHECK(initiator >= 0 && initiator < n);
  auto eligible = [&query](int pid) { return !query.eligible || query.eligible(pid); };

  std::vector<int> participants;
  if (scope != CoordinationScope::kCommunicated) {
    const bool only_dirty = scope == CoordinationScope::kNdDirty;
    for (int pid = 0; pid < n; ++pid) {
      if (pid != initiator && eligible(pid) &&
          (!only_dirty || query.has_uncommitted_nd(pid))) {
        participants.push_back(pid);
      }
    }
    return participants;
  }

  // Grow the set to its fixed point: pid joins once any peer its record
  // names is a member.
  std::vector<bool> member(static_cast<size_t>(n), false);
  member[static_cast<size_t>(initiator)] = true;
  for (bool grew = true; grew;) {
    grew = false;
    for (int pid = 0; pid < n; ++pid) {
      if (member[static_cast<size_t>(pid)] || !eligible(pid)) {
        continue;
      }
      for (int peer : query.communicated(pid).peers()) {
        FTX_CHECK(peer >= 0 && peer < n);
        if (member[static_cast<size_t>(peer)]) {
          member[static_cast<size_t>(pid)] = true;
          grew = true;
          break;
        }
      }
    }
  }
  for (int pid = 0; pid < n; ++pid) {
    if (pid != initiator && member[static_cast<size_t>(pid)]) {
      participants.push_back(pid);
    }
  }
  return participants;
}

}  // namespace ftx_proto
