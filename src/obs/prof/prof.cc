#include "src/obs/prof/prof.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

namespace ftx_prof {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string LeafOf(std::string_view stack) {
  size_t pos = stack.rfind(';');
  return std::string(pos == std::string_view::npos ? stack : stack.substr(pos + 1));
}

}  // namespace

// --- shard: one thread's private call tree ---

struct Profiler::Shard {
  struct Node {
    int32_t parent = -1;  // index into nodes, -1 = top level
    std::string name;
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t child_ns = 0;
  };
  struct Frame {
    int32_t node = 0;
    int64_t begin_ns = 0;
    int64_t child_ns = 0;  // accumulated directly-nested scope time
  };

  std::vector<Node> nodes;
  std::vector<Frame> stack;
  // Child lookup by (parent, name-pointer). Instrumentation names are
  // literals, so pointer identity almost always hits; two distinct literals
  // with equal text merely create two nodes that Merge() re-aggregates by
  // path.
  std::unordered_map<uint64_t, int32_t> children;

  static uint64_t ChildKey(int32_t parent, const char* name) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(parent + 1)) << 48) ^
           reinterpret_cast<uintptr_t>(name);
  }

  int32_t ChildNode(int32_t parent, const char* name) {
    uint64_t key = ChildKey(parent, name);
    auto it = children.find(key);
    if (it != children.end()) {
      return it->second;
    }
    Node node;
    node.parent = parent;
    node.name = name;
    nodes.push_back(std::move(node));
    int32_t id = static_cast<int32_t>(nodes.size()) - 1;
    children.emplace(key, id);
    return id;
  }
};

// --- thread state ---

struct Profiler::ThreadState {
  Profiler* active = nullptr;
  Shard* shard = nullptr;
  // Shards this thread acquired, keyed by the profiler's unique id (ids are
  // never reused, so a stale entry for a destroyed profiler is never hit).
  std::unordered_map<uint64_t, Shard*> shard_cache;
};

Profiler::ThreadState& Profiler::Tls() {
  thread_local ThreadState state;
  return state;
}

Profiler* Profiler::ActiveOnThisThread() { return Tls().active; }

namespace {
std::atomic<uint64_t> g_next_profiler_id{1};
}  // namespace

Profiler::Profiler() : id_(g_next_profiler_id.fetch_add(1, std::memory_order_relaxed)) {}

Profiler::~Profiler() {
  // If this profiler is still active on the destroying thread, deactivate.
  ThreadState& ts = Tls();
  if (ts.active == this) {
    ts.active = nullptr;
    ts.shard = nullptr;
  }
}

Profiler::Shard* Profiler::AcquireShard() {
  ThreadState& ts = Tls();
  auto it = ts.shard_cache.find(id_);
  if (it != ts.shard_cache.end()) {
    return it->second;
  }
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(shard));
  }
  ts.shard_cache.emplace(id_, raw);
  return raw;
}

Profile Profiler::Merge() const {
  struct Accum {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t child_ns = 0;
  };
  std::map<std::string, Accum> merged;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    // Resolve each node's full collapsed path (parents have smaller
    // indices than children by construction).
    std::vector<std::string> paths(shard->nodes.size());
    for (size_t i = 0; i < shard->nodes.size(); ++i) {
      const Shard::Node& node = shard->nodes[i];
      paths[i] = node.parent < 0
                     ? node.name
                     : paths[static_cast<size_t>(node.parent)] + ";" + node.name;
      if (node.count == 0) {
        continue;  // scope entered but never completed (still open)
      }
      Accum& a = merged[paths[i]];
      a.count += node.count;
      a.total_ns += node.total_ns;
      a.child_ns += node.child_ns;
    }
  }
  Profile profile;
  profile.entries.reserve(merged.size());
  for (auto& [stack, a] : merged) {
    ProfileEntry entry;
    entry.stack = stack;
    entry.count = a.count;
    entry.total_ns = a.total_ns;
    entry.self_ns = std::max<int64_t>(0, a.total_ns - a.child_ns);
    profile.entries.push_back(std::move(entry));
  }
  return profile;
}

// --- activation ---

Activation::Activation(Profiler* profiler) {
  if (profiler == nullptr) {
    return;
  }
  Profiler::ThreadState& ts = Profiler::Tls();
  previous_ = ts.active;
  previous_shard_ = ts.shard;
  ts.active = profiler;
  ts.shard = profiler->AcquireShard();
  activated_ = true;
}

Activation::~Activation() {
  if (!activated_) {
    return;
  }
  Profiler::ThreadState& ts = Profiler::Tls();
  ts.active = previous_;
  ts.shard = static_cast<Profiler::Shard*>(previous_shard_);
}

// --- scope ---

Scope::Scope(const char* name) {
  Profiler::ThreadState& ts = Profiler::Tls();
  Profiler::Shard* shard = ts.shard;
  if (shard == nullptr) {
    return;  // profiling off: one TL load + branch
  }
  int32_t parent = shard->stack.empty() ? -1 : shard->stack.back().node;
  Profiler::Shard::Frame frame;
  frame.node = shard->ChildNode(parent, name);
  frame.begin_ns = NowNs();
  shard->stack.push_back(frame);
  shard_ = shard;
}

Scope::~Scope() {
  if (shard_ == nullptr) {
    return;
  }
  auto* shard = static_cast<Profiler::Shard*>(shard_);
  Profiler::Shard::Frame frame = shard->stack.back();
  shard->stack.pop_back();
  int64_t elapsed = NowNs() - frame.begin_ns;
  Profiler::Shard::Node& node = shard->nodes[static_cast<size_t>(frame.node)];
  ++node.count;
  node.total_ns += elapsed;
  node.child_ns += frame.child_ns;
  if (!shard->stack.empty()) {
    shard->stack.back().child_ns += elapsed;
  }
}

// --- profile queries and exports ---

const ProfileEntry* Profile::Find(std::string_view stack) const {
  for (const ProfileEntry& entry : entries) {
    if (entry.stack == stack) {
      return &entry;
    }
  }
  return nullptr;
}

int64_t Profile::LeafTotalNs(std::string_view leaf) const {
  int64_t total = 0;
  for (const ProfileEntry& entry : entries) {
    if (LeafOf(entry.stack) == leaf) {
      total += entry.total_ns;
    }
  }
  return total;
}

int64_t Profile::LeafCount(std::string_view leaf) const {
  int64_t total = 0;
  for (const ProfileEntry& entry : entries) {
    if (LeafOf(entry.stack) == leaf) {
      total += entry.count;
    }
  }
  return total;
}

std::string Profile::ToCollapsed(bool weight_ns) const {
  std::string out;
  for (const ProfileEntry& entry : entries) {
    out += entry.stack;
    out += ' ';
    out += std::to_string(weight_ns ? entry.total_ns : entry.count);
    out += '\n';
  }
  return out;
}

// --- host metadata ---

namespace {

std::string CpuModelString() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) {
    return "";
  }
  char line[512];
  std::string model;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ' || model.front() == '\t')) {
          model.erase(model.begin());
        }
        while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

}  // namespace

ftx_obs::Json HostMetaJson() {
  ftx_obs::Json host = ftx_obs::Json::Object();
  host.Set("cpu_model", CpuModelString());
  host.Set("num_cpus", static_cast<int64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  host.Set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.Set("compiler", std::string("gcc ") + __VERSION__);
#else
  host.Set("compiler", "unknown");
#endif
#if defined(FTX_NATIVE)
  host.Set("ftx_native", true);
#else
  host.Set("ftx_native", false);
#endif
#if defined(FTX_SANITIZE_NAME)
  host.Set("sanitizer", FTX_SANITIZE_NAME);
#else
  host.Set("sanitizer", "none");
#endif
  return host;
}

}  // namespace ftx_prof
