#include "perfbench/critical_path.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>

namespace perfbench {

using mvstore::SimTime;
using mvstore::SpanId;
using mvstore::TraceEvent;

namespace {

/// The `queue_wait_us=N` annotation ServiceQueue puts on a `svc` span.
SimTime QueueWait(const TraceEvent& event) {
  static const std::string kTag = "queue_wait_us=";
  const auto at = event.note.find(kTag);
  if (at == std::string::npos) return 0;
  return std::strtoll(event.note.c_str() + at + kTag.size(), nullptr, 10);
}

void Attribute(const TraceEvent& event, SimTime self, PathBreakdown* out) {
  const std::string& name = event.name;
  if (name.rfind("net ", 0) == 0) {
    out->net_us += static_cast<double>(self);
  } else if (name == "svc") {
    const SimTime queued = std::min(self, QueueWait(event));
    out->queue_us += static_cast<double>(queued);
    out->service_us += static_cast<double>(self - queued);
  } else if (name == "view.lock_wait" || name == "view.session_defer" ||
             name == "view.read_spin") {
    out->view_wait_us += static_cast<double>(self);
  }
}

}  // namespace

std::optional<PathBreakdown> ReduceCriticalPath(
    const std::vector<TraceEvent>& events) {
  std::unordered_map<SpanId, const TraceEvent*> by_span;
  const TraceEvent* root = nullptr;
  for (const TraceEvent& event : events) {
    by_span.emplace(event.span, &event);
    if (event.parent == 0) root = &event;
  }
  if (root == nullptr || root->end == 0) return std::nullopt;

  // The deepest span that finished exactly when the op did, with its
  // ancestor chain intact.
  std::vector<const TraceEvent*> chain;
  for (const TraceEvent& event : events) {
    if (&event == root || event.end != root->end) continue;
    std::vector<const TraceEvent*> path = {&event};
    while (path.back()->parent != 0) {
      const auto it = by_span.find(path.back()->parent);
      if (it == by_span.end()) break;
      path.push_back(it->second);
    }
    if (path.back() == root && path.size() > chain.size()) chain = path;
  }
  if (chain.empty()) return std::nullopt;
  std::reverse(chain.begin(), chain.end());

  PathBreakdown out;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    Attribute(*chain[i], chain[i + 1]->start - chain[i]->start, &out);
  }
  Attribute(*chain.back(), chain.back()->end - chain.back()->start, &out);
  return out;
}

}  // namespace perfbench
