#include "src/protocol/script_replay.h"

#include <map>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/protocol/coordination.h"
#include "src/protocol/protocol.h"

namespace ftx_proto {
namespace {

// The application event a scripted event stands for (a scripted fixed-ND
// event models user input).
AppEvent ToAppEvent(ftx_sm::EventKind kind) {
  switch (kind) {
    case ftx_sm::EventKind::kTransientNd:
      return AppEvent::kTransientNd;
    case ftx_sm::EventKind::kFixedNd:
      return AppEvent::kUserInput;  // scripted fixed ND models user input
    case ftx_sm::EventKind::kReceive:
      return AppEvent::kReceive;
    case ftx_sm::EventKind::kSend:
      return AppEvent::kSend;
    case ftx_sm::EventKind::kVisible:
      return AppEvent::kVisible;
    default:
      return AppEvent::kInternal;
  }
}

class Replayer {
 public:
  Replayer(int num_processes, std::string_view protocol_name)
      : result_(num_processes), communicated_(static_cast<size_t>(num_processes)) {
    for (int p = 0; p < num_processes; ++p) {
      protocols_.push_back(MakeProtocolByName(protocol_name));
    }
  }

  ScriptReplayResult Run(const std::vector<ftx_sm::ScriptedEvent>& script) {
    for (const auto& ev : script) {
      CommitDecision d = protocols_[static_cast<size_t>(ev.process)]->Decide(ToAppEvent(ev.kind));
      bool logged = ev.logged || d.log_event;
      if (logged && ftx_sm::IsNonDeterministic(ev.kind)) {
        ++result_.logged_events;
      }
      if (d.commit_before) {
        if (d.coordinated) {
          CoordinatedCommit(ev.process, d.scope);
        } else {
          Commit(ev.process, -1);
        }
      }
      TrackCommunication(ev);
      int64_t group =
          ev.kind == ftx_sm::EventKind::kVisible ? next_group_ - 1 : -1;
      result_.trace.Append(ev.process, ev.kind, ev.message_id, logged, "", group);
      if (d.commit_after) {
        Commit(ev.process, -1);
      }
    }
    return std::move(result_);
  }

 private:
  void TrackCommunication(const ftx_sm::ScriptedEvent& ev) {
    if (ev.kind == ftx_sm::EventKind::kSend && ev.message_id >= 0) {
      sender_of_[ev.message_id] = ev.process;
    }
    if (ev.kind == ftx_sm::EventKind::kReceive && ev.message_id >= 0) {
      auto it = sender_of_.find(ev.message_id);
      if (it != sender_of_.end()) {
        communicated_[static_cast<size_t>(ev.process)].Note(it->second);
        communicated_[static_cast<size_t>(it->second)].Note(ev.process);
      }
    }
  }

  void Commit(int pid, int64_t atomic_group) {
    result_.trace.Append(pid, ftx_sm::EventKind::kCommit, -1, false, "", atomic_group);
    protocols_[static_cast<size_t>(pid)]->OnCommitted();
    communicated_[static_cast<size_t>(pid)].Clear();
    ++result_.total_commits;
  }

  void CoordinatedCommit(int initiator, CoordinationScope scope) {
    ++result_.coordinated_rounds;
    int64_t group = next_group_++;
    ParticipantQuery query;
    query.num_processes = result_.trace.num_processes();
    query.has_uncommitted_nd = [this](int pid) {
      return protocols_[static_cast<size_t>(pid)]->HasUncommittedNd();
    };
    query.communicated = [this](int pid) -> const CommunicationRecord& {
      return communicated_[static_cast<size_t>(pid)];
    };
    for (int pid : CoordinationParticipants(initiator, scope, query)) {
      int64_t prepare = next_coord_message_++;
      result_.trace.Append(initiator, ftx_sm::EventKind::kSend, prepare);
      result_.trace.Append(pid, ftx_sm::EventKind::kReceive, prepare, /*logged=*/true, "2pc");
      Commit(pid, group);
      int64_t ack = next_coord_message_++;
      result_.trace.Append(pid, ftx_sm::EventKind::kSend, ack);
      result_.trace.Append(initiator, ftx_sm::EventKind::kReceive, ack, /*logged=*/true, "2pc");
    }
    Commit(initiator, group);
  }

  ScriptReplayResult result_;
  std::vector<std::unique_ptr<Protocol>> protocols_;
  std::vector<CommunicationRecord> communicated_;
  std::map<int64_t, int> sender_of_;
  int64_t next_coord_message_ = 1LL << 40;
  int64_t next_group_ = 1;
};

}  // namespace

ScriptReplayResult ReplayScript(const std::vector<ftx_sm::ScriptedEvent>& script,
                                int num_processes, std::string_view protocol_name) {
  FTX_CHECK_GT(num_processes, 0);
  Replayer replayer(num_processes, protocol_name);
  return replayer.Run(script);
}

}  // namespace ftx_proto
