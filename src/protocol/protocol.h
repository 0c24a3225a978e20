// Save-work protocols (§2.4).
//
// A protocol decides, from the stream of events a process executes, when the
// process must commit and which non-deterministic events to render
// deterministic by logging. All protocols here uphold the Save-work
// invariant — they differ only in commit frequency and in how much
// application knowledge (non-determinism on one axis, visibility on the
// other) they exploit. The runtime (ftx_dc::Runtime) consults its process's
// protocol instance before and after every application event.

#ifndef FTX_SRC_PROTOCOL_PROTOCOL_H_
#define FTX_SRC_PROTOCOL_PROTOCOL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ftx_proto {

// Application-level event classification as seen by the runtime.
enum class AppEvent {
  kInternal = 0,  // deterministic computation
  kTransientNd,   // signal delivery, gettimeofday, select, scheduling
  kFixedNd,       // resource-dependent syscall results (open, write)
  kUserInput,     // fixed ND, but *loggable* (read from tty)
  kReceive,       // message receive (transient ND, loggable)
  kSignal,        // delivered signal (transient ND; the one class Targon/32
                  //   cannot convert — only a full-machine logger can)
  kSend,
  kVisible,
};

bool IsNdEvent(AppEvent event);

// Which processes a coordinated (2PC) commit must include.
enum class CoordinationScope {
  kAll,           // every live process (CPV-2PC)
  kNdDirty,       // processes with unlogged ND since their last commit
                  //   (CBNDV-2PC)
  kCommunicated,  // transitive closure of processes communicated with since
                  //   their last commits (Coordinated Checkpointing [18])
};

// What the protocol asks the runtime to do around one event.
struct CommitDecision {
  bool commit_before = false;       // commit this process before the event
  bool commit_after = false;        // commit this process after the event
  bool coordinated = false;         // the before-commit must be a 2PC commit
                                    //   spanning other involved processes
  CoordinationScope scope = CoordinationScope::kAll;
  bool log_event = false;           // record the event's result in the ND log
  bool log_async = false;           // the log write may be deferred
                                    //   (Optimistic Logging); flushed in a
                                    //   batch at flush_log_before
  bool flush_log_before = false;    // wait for outstanding async log records
                                    //   to reach stable storage before this
                                    //   event executes
};

// Where a protocol sits in the two-axis protocol space of Fig. 3, for
// reporting and plotting. Both coordinates are in [0, 1].
struct SpacePoint {
  double nd_effort = 0.0;       // effort to identify/convert non-determinism
  double visible_effort = 0.0;  // effort to commit only visible events
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string_view name() const = 0;
  virtual SpacePoint space_point() const = 0;

  // Consulted once per application event, before it executes. The runtime
  // performs the returned commits/logging and reports completion through
  // OnCommitted().
  virtual CommitDecision Decide(AppEvent event) = 0;

  // Called after any commit of this process completes (whether requested by
  // this protocol, by a coordinated commit initiated remotely, or by the
  // recovery system).
  virtual void OnCommitted() = 0;

  // True if this process has executed an unlogged ND event since its last
  // commit (drives CBNDVS-style decisions and 2PC participant selection).
  virtual bool HasUncommittedNd() const = 0;

  // Fresh instance with the same configuration (one per process).
  virtual std::unique_ptr<Protocol> Clone() const = 0;
};

// --- the measured protocols ---

// Origin of the protocol space: commits after *every* event, knowing nothing
// about event types. Trivially upholds Save-work.
std::unique_ptr<Protocol> MakeCommitAll();

// Commit After Non-Deterministic: commits immediately after each ND event.
std::unique_ptr<Protocol> MakeCand();

// CAND + logging of user input and receives; commits only after the
// remaining (unloggable) ND events.
std::unique_ptr<Protocol> MakeCandLog();

// Commit Prior to Visible or Send: commits just before every visible or
// send event, with no knowledge of non-determinism.
std::unique_ptr<Protocol> MakeCpvs();

// Commit Between Non-Deterministic and Visible or Send: commits before a
// visible/send only if an ND event executed since the last commit.
std::unique_ptr<Protocol> MakeCbndvs();

// CBNDVS + logging of user input and receives (only unlogged ND arms the
// commit trigger).
std::unique_ptr<Protocol> MakeCbndvsLog();

// Commit Prior to Visible with two-phase commit: all involved processes
// commit whenever any process executes a visible event; sends need no
// commits.
std::unique_ptr<Protocol> MakeCpv2pc();

// CBNDVS with two-phase commit: coordinated commit before a visible, with
// only ND-dirty processes participating; sends need no commits.
std::unique_ptr<Protocol> MakeCbndv2pc();

// --- the literature protocols (see protocol2.cc) ---

// Sender-Based Logging: receives logged, everything else commits.
std::unique_ptr<Protocol> MakeSbl();
// Targon/32: all non-determinism but signals converted to logged messages.
std::unique_ptr<Protocol> MakeTargon32();
// Hypervisor: a VM logs every source of non-determinism; no commits, ever.
std::unique_ptr<Protocol> MakeHypervisor();
// Optimistic Logging: asynchronous log writes, flushed before visibles.
std::unique_ptr<Protocol> MakeOptimisticLog();
// Coordinated Checkpointing: visible forces commits across the transitive
// communication closure.
std::unique_ptr<Protocol> MakeCoordinatedCheckpointing();
// Family-Based Logging: receive records piggybacked downstream on sends.
std::unique_ptr<Protocol> MakeFbl();
// Manetho: an antecedence graph of all depended-on ND, flushed before
// visibles and carried on messages.
std::unique_ptr<Protocol> MakeManetho();

// Instantiates a protocol by its canonical name ("cand", "cpvs", "cbndvs",
// "cand-log", "cbndvs-log", "cpv-2pc", "cbndv-2pc", "commit-all", "sbl",
// "targon32", "hypervisor", "optimistic-log", "coordinated-ckpt").
std::unique_ptr<Protocol> MakeProtocolByName(std::string_view name);

// Names of the seven protocols measured in the paper, in Fig. 8 order.
const std::vector<std::string>& MeasuredProtocolNames();

}  // namespace ftx_proto

#endif  // FTX_SRC_PROTOCOL_PROTOCOL_H_
