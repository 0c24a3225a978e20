#include "src/protocol/protocol.h"

#include "src/common/check.h"

namespace ftx_proto {

bool IsNdEvent(AppEvent event) {
  switch (event) {
    case AppEvent::kTransientNd:
    case AppEvent::kFixedNd:
    case AppEvent::kUserInput:
    case AppEvent::kReceive:
    case AppEvent::kSignal:
      return true;
    case AppEvent::kInternal:
    case AppEvent::kSend:
    case AppEvent::kVisible:
      return false;
  }
  return false;
}

namespace {

// User input and receives are the loggable ND classes Discount Checking
// supports (§3: "the ability to log non-deterministic user input and message
// receive events to render them deterministic").
bool IsLoggable(AppEvent event) {
  return event == AppEvent::kUserInput || event == AppEvent::kReceive;
}

// Shared bookkeeping: tracks whether unlogged ND executed since last commit.
class ProtocolBase : public Protocol {
 public:
  void OnCommitted() override { nd_since_commit_ = false; }
  bool HasUncommittedNd() const override { return nd_since_commit_; }

 protected:
  void NoteEvent(AppEvent event, bool logged) {
    if (IsNdEvent(event) && !logged) {
      nd_since_commit_ = true;
    }
  }

  bool nd_since_commit_ = false;
};

class CommitAllProtocol : public ProtocolBase {
 public:
  std::string_view name() const override { return "commit-all"; }
  SpacePoint space_point() const override { return {0.0, 0.0}; }
  CommitDecision Decide(AppEvent event) override {
    NoteEvent(event, /*logged=*/false);
    CommitDecision d;
    d.commit_after = true;
    return d;
  }
  std::unique_ptr<Protocol> Clone() const override {
    return std::make_unique<CommitAllProtocol>();
  }
};

class CandProtocol : public ProtocolBase {
 public:
  std::string_view name() const override { return "cand"; }
  SpacePoint space_point() const override { return {0.35, 0.0}; }
  CommitDecision Decide(AppEvent event) override {
    NoteEvent(event, /*logged=*/false);
    CommitDecision d;
    d.commit_after = IsNdEvent(event);
    return d;
  }
  std::unique_ptr<Protocol> Clone() const override { return std::make_unique<CandProtocol>(); }
};

class CandLogProtocol : public ProtocolBase {
 public:
  std::string_view name() const override { return "cand-log"; }
  SpacePoint space_point() const override { return {0.65, 0.0}; }
  CommitDecision Decide(AppEvent event) override {
    CommitDecision d;
    d.log_event = IsLoggable(event);
    NoteEvent(event, d.log_event);
    d.commit_after = IsNdEvent(event) && !d.log_event;
    return d;
  }
  std::unique_ptr<Protocol> Clone() const override { return std::make_unique<CandLogProtocol>(); }
};

class CpvsProtocol : public ProtocolBase {
 public:
  std::string_view name() const override { return "cpvs"; }
  SpacePoint space_point() const override { return {0.0, 0.45}; }
  CommitDecision Decide(AppEvent event) override {
    NoteEvent(event, /*logged=*/false);
    CommitDecision d;
    d.commit_before = event == AppEvent::kVisible || event == AppEvent::kSend;
    return d;
  }
  std::unique_ptr<Protocol> Clone() const override { return std::make_unique<CpvsProtocol>(); }
};

class CbndvsProtocol : public ProtocolBase {
 public:
  std::string_view name() const override { return "cbndvs"; }
  SpacePoint space_point() const override { return {0.35, 0.45}; }
  CommitDecision Decide(AppEvent event) override {
    NoteEvent(event, /*logged=*/false);
    CommitDecision d;
    d.commit_before =
        (event == AppEvent::kVisible || event == AppEvent::kSend) && nd_since_commit_;
    return d;
  }
  std::unique_ptr<Protocol> Clone() const override { return std::make_unique<CbndvsProtocol>(); }
};

class CbndvsLogProtocol : public ProtocolBase {
 public:
  std::string_view name() const override { return "cbndvs-log"; }
  SpacePoint space_point() const override { return {0.65, 0.45}; }
  CommitDecision Decide(AppEvent event) override {
    CommitDecision d;
    d.log_event = IsLoggable(event);
    NoteEvent(event, d.log_event);
    d.commit_before =
        (event == AppEvent::kVisible || event == AppEvent::kSend) && nd_since_commit_;
    return d;
  }
  std::unique_ptr<Protocol> Clone() const override {
    return std::make_unique<CbndvsLogProtocol>();
  }
};

class Cpv2pcProtocol : public ProtocolBase {
 public:
  std::string_view name() const override { return "cpv-2pc"; }
  SpacePoint space_point() const override { return {0.0, 0.85}; }
  CommitDecision Decide(AppEvent event) override {
    NoteEvent(event, /*logged=*/false);
    CommitDecision d;
    if (event == AppEvent::kVisible) {
      d.commit_before = true;
      d.coordinated = true;
      d.scope = CoordinationScope::kAll;
    }
    return d;
  }
  std::unique_ptr<Protocol> Clone() const override { return std::make_unique<Cpv2pcProtocol>(); }
};

class Cbndv2pcProtocol : public ProtocolBase {
 public:
  std::string_view name() const override { return "cbndv-2pc"; }
  SpacePoint space_point() const override { return {0.35, 0.85}; }
  CommitDecision Decide(AppEvent event) override {
    NoteEvent(event, /*logged=*/false);
    CommitDecision d;
    if (event == AppEvent::kVisible) {
      // The coordinated commit runs even when this process is clean: a
      // remote process may hold uncommitted ND this visible depends on. The
      // runtime narrows participation to ND-dirty processes.
      d.commit_before = true;
      d.coordinated = true;
      d.scope = CoordinationScope::kNdDirty;
    }
    return d;
  }
  std::unique_ptr<Protocol> Clone() const override {
    return std::make_unique<Cbndv2pcProtocol>();
  }
};

}  // namespace

std::unique_ptr<Protocol> MakeCommitAll() { return std::make_unique<CommitAllProtocol>(); }
std::unique_ptr<Protocol> MakeCand() { return std::make_unique<CandProtocol>(); }
std::unique_ptr<Protocol> MakeCandLog() { return std::make_unique<CandLogProtocol>(); }
std::unique_ptr<Protocol> MakeCpvs() { return std::make_unique<CpvsProtocol>(); }
std::unique_ptr<Protocol> MakeCbndvs() { return std::make_unique<CbndvsProtocol>(); }
std::unique_ptr<Protocol> MakeCbndvsLog() { return std::make_unique<CbndvsLogProtocol>(); }
std::unique_ptr<Protocol> MakeCpv2pc() { return std::make_unique<Cpv2pcProtocol>(); }
std::unique_ptr<Protocol> MakeCbndv2pc() { return std::make_unique<Cbndv2pcProtocol>(); }

std::unique_ptr<Protocol> MakeProtocolByName(std::string_view name) {
  if (name == "commit-all") {
    return MakeCommitAll();
  }
  if (name == "cand") {
    return MakeCand();
  }
  if (name == "cand-log") {
    return MakeCandLog();
  }
  if (name == "cpvs") {
    return MakeCpvs();
  }
  if (name == "cbndvs") {
    return MakeCbndvs();
  }
  if (name == "cbndvs-log") {
    return MakeCbndvsLog();
  }
  if (name == "cpv-2pc") {
    return MakeCpv2pc();
  }
  if (name == "cbndv-2pc") {
    return MakeCbndv2pc();
  }
  if (name == "sbl") {
    return MakeSbl();
  }
  if (name == "targon32") {
    return MakeTargon32();
  }
  if (name == "hypervisor") {
    return MakeHypervisor();
  }
  if (name == "optimistic-log") {
    return MakeOptimisticLog();
  }
  if (name == "coordinated-ckpt") {
    return MakeCoordinatedCheckpointing();
  }
  if (name == "fbl") {
    return MakeFbl();
  }
  if (name == "manetho") {
    return MakeManetho();
  }
  FTX_CHECK_MSG(false, "unknown protocol: %.*s", static_cast<int>(name.size()), name.data());
  return nullptr;
}

const std::vector<std::string>& MeasuredProtocolNames() {
  static const std::vector<std::string> kNames = {
      "cand", "cand-log", "cpvs", "cbndvs", "cbndvs-log", "cpv-2pc", "cbndv-2pc",
  };
  return kNames;
}

}  // namespace ftx_proto
