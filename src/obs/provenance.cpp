#include "obs/provenance.hpp"

#include <algorithm>
#include <cstring>

namespace bzc::obs {

const char* blameKindName(BlameKind kind) {
  switch (kind) {
    case BlameKind::DroppedQuery: return "droppedQuery";
    case BlameKind::DroppedAnswer: return "droppedAnswer";
    case BlameKind::FlippedAnswer: return "flippedAnswer";
    case BlameKind::MisroutedAnswer: return "misroutedAnswer";
    case BlameKind::StrayAnswer: return "strayAnswer";
    case BlameKind::ForgedAnswer: return "forgedAnswer";
    case BlameKind::CompromisedSample: return "compromisedSample";
    case BlameKind::WrongDecision: return "wrongDecision";
    case BlameKind::BeaconForged: return "beaconForged";
    case BlameKind::RelayTampered: return "relayTampered";
    case BlameKind::RelaySuppressed: return "relaySuppressed";
    case BlameKind::ContinueSpam: return "continueSpam";
    case BlameKind::ContinueSuppressed: return "continueSuppressed";
    case BlameKind::BlacklistedHonestId: return "blacklistedHonestId";
    case BlameKind::BlacklistedFakeId: return "blacklistedFakeId";
    case BlameKind::RejoinLineage: return "rejoinLineage";
    case BlameKind::kCount: break;
  }
  return "?";
}

void BlameGraph::merge(const BlameGraph& other) {
  for (const auto& [key, count] : other.edges_) edges_[key] += count;
  for (const auto& [name, value] : other.totals_) totals_[name] += value;
  if (subsetOf.empty()) subsetOf = other.subsetOf;
  if (victimDistance.empty()) victimDistance = other.victimDistance;
}

void BlameGraph::addTotal(const char* name, std::uint64_t value) {
  totals_[name] += value;
}

std::uint64_t BlameGraph::total(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second;
}

void BlameGraph::remapNodes(const std::vector<std::uint64_t>& denseToId) {
  if (denseToId.empty() || edges_.empty()) return;
  const auto remap = [&denseToId](std::uint64_t id) {
    return id < denseToId.size() ? denseToId[id] : id;
  };
  std::unordered_map<Key, std::uint64_t, KeyHash> remapped;
  remapped.reserve(edges_.size());
  for (const auto& [key, count] : edges_) {
    Key k = key;
    if (k.cause != kBlameNone) k.cause = remap(k.cause);
    if (k.victim != kBlameNone) k.victim = remap(k.victim);
    remapped[k] += count;
  }
  edges_ = std::move(remapped);
  // Dense indexing no longer matches the remapped ids.
  subsetOf.clear();
  victimDistance.clear();
}

std::vector<BlameEdge> BlameGraph::canonical() const {
  std::vector<BlameEdge> out;
  out.reserve(edges_.size());
  for (const auto& [key, count] : edges_)
    out.push_back(BlameEdge{key.kind, key.cause, key.victim, count});
  std::sort(out.begin(), out.end(), [](const BlameEdge& a, const BlameEdge& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.cause != b.cause) return a.cause < b.cause;
    return a.victim < b.victim;
  });
  return out;
}

std::uint64_t BlameGraph::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const BlameEdge& e : canonical()) {
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.cause);
    mix(e.victim);
    mix(e.count);
  }
  for (const auto& [name, value] : totals_) {
    for (const char c : name) mix(static_cast<std::uint64_t>(c));
    mix(value);
  }
  return h;
}

std::uint64_t BlameGraph::kindCount(BlameKind kind) const {
  std::uint64_t sum = 0;
  for (const auto& [key, count] : edges_)
    if (key.kind == kind) sum += count;
  return sum;
}

std::uint64_t BlameGraph::attributedCount() const {
  std::uint64_t sum = 0;
  for (const auto& [key, count] : edges_)
    if (key.cause != kBlameNone) sum += count;
  return sum;
}

void BlameGraph::clear() {
  edges_.clear();
  totals_.clear();
  subsetOf.clear();
  victimDistance.clear();
}

BlameExtras BlameGraph::extras() const {
  BlameExtras out;
  // Integer sums are order-free; the HHI's floating-point sum runs over the
  // cause-keyed map, so it adds in cause order whatever the edge order.
  std::map<std::uint64_t, std::uint64_t> byCause;
  for (const auto& [key, count] : edges_) {
    out.total += count;
    if (key.kind == BlameKind::WrongDecision) out.wrongDecisions += count;
    if (key.cause == kBlameNone) continue;
    byCause[key.cause] += count;
    const std::uint8_t subset = key.cause < subsetOf.size() ? subsetOf[key.cause] : 0xff;
    out.bySubset[subset < kBlameMaxSubsets - 1 ? subset : kBlameMaxSubsets - 1] += count;
  }
  std::uint64_t attributed = 0;
  std::uint64_t top = 0;
  for (const auto& [cause, count] : byCause) {
    attributed += count;
    top = std::max(top, count);
  }
  if (attributed == 0) return out;
  for (const auto& [cause, count] : byCause) {
    const double share = static_cast<double>(count) / static_cast<double>(attributed);
    out.concentration += share * share;
  }
  out.topShare = static_cast<double>(top) / static_cast<double>(attributed);
  return out;
}

}  // namespace bzc::obs
