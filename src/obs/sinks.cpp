#include "obs/sinks.hpp"

#include <cstdio>
#include <sstream>

namespace bzc::obs {

namespace {

/// Bumped on any change a reader must know about; tools/run_record.py
/// refuses other versions.
constexpr int kRecordVersion = 2;

/// Minimal JSON string escaping (names are static identifiers; scenario
/// names come from bench code and could in principle carry anything).
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `{"type":T,"scenario":S,"trial":N` — the opening of the blame and end
/// lines; callers append their fields and close the object.
void openLine(std::ostream& os, const char* type, const TrialTrace& trace) {
  os << "{\"type\":\"" << type << "\",\"scenario\":\"" << jsonEscape(trace.scenario)
     << "\",\"trial\":" << trace.trial;
}

void writeEvent(std::ostream& os, const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::Round: {
      const RoundRecord& r = e.rd;
      os << "{\"type\":\"round\",\"round\":" << r.round << ",\"sends\":" << r.sends
         << ",\"touched\":" << r.touched << ",\"messages\":" << r.messages
         << ",\"bits\":" << r.bits << ",\"idle\":" << static_cast<unsigned>(r.idle)
         << ",\"lane\":" << e.lane << ",\"ts\":" << e.tsNs << ",\"recvNs\":" << r.recvNs
         << ",\"mergeNs\":" << r.mergeNs << ",\"scatterNs\":" << r.scatterNs << "}\n";
      break;
    }
    case EventKind::Span:
      os << "{\"type\":\"span\",\"name\":\"" << e.name << "\",\"round\":" << e.round
         << ",\"lane\":" << e.lane << ",\"ts\":" << e.tsNs << ",\"dur\":" << e.durNs << "}\n";
      break;
    case EventKind::Counter:
    case EventKind::Mark:
      os << "{\"type\":\"" << eventKindName(e.kind) << "\",\"name\":\"" << e.name
         << "\",\"round\":" << e.round << ",\"lane\":" << e.lane << ",\"value\":" << e.value
         << ",\"ts\":" << e.tsNs << "}\n";
      break;
  }
}

/// The canonical edge projection, the named reconciliation totals and, when
/// present, the victim-distance table (DESIGN.md §14).
void writeBlame(std::ostream& os, const TrialTrace& trace) {
  const BlameGraph& g = trace.blame;
  // Node-id fields use -1 for "none" (kBlameNone): unattributed cause /
  // graph-wide victim / no subset mapping.
  const auto id = [](std::uint64_t v) -> std::int64_t {
    return v == kBlameNone ? -1 : static_cast<std::int64_t>(v);
  };
  openLine(os, "blame", trace);
  os << ",\"edges\":[";
  bool first = true;
  for (const BlameEdge& e : g.canonical()) {
    if (!first) os << ',';
    first = false;
    std::int64_t subset = -1;
    if (e.cause != kBlameNone && e.cause < g.subsetOf.size() && g.subsetOf[e.cause] != 0xff)
      subset = g.subsetOf[e.cause];
    os << "{\"kind\":\"" << blameKindName(e.kind) << "\",\"subset\":" << subset
       << ",\"cause\":" << id(e.cause) << ",\"victim\":" << id(e.victim)
       << ",\"count\":" << e.count << '}';
  }
  os << "],\"totals\":{";
  first = true;
  for (const auto& [name, value] : g.totals()) {
    if (!first) os << ',';
    first = false;
    os << '"' << jsonEscape(name) << "\":" << value;
  }
  os << '}';
  if (!g.victimDistance.empty()) {
    os << ",\"victimDist\":[";
    for (std::size_t i = 0; i < g.victimDistance.size(); ++i) {
      if (i > 0) os << ',';
      os << g.victimDistance[i];
    }
    os << ']';
  }
  os << "}\n";
}

void writeBlock(std::ostream& os, const TrialTrace& trace) {
  os << "{\"type\":\"trial\",\"v\":" << kRecordVersion << ",\"scenario\":\""
     << jsonEscape(trace.scenario) << "\",\"trial\":" << trace.trial << "}\n";
  std::uint64_t rounds = 0, messages = 0, bits = 0;
  for (const TraceEvent& e : trace.events) {
    writeEvent(os, e);
    if (e.kind != EventKind::Round) continue;
    rounds += 1;
    messages += e.rd.messages;
    bits += e.rd.bits;
  }
  writeBlame(os, trace);
  // Totals let the validator reconcile without re-walking, and let tests pin
  // trace-vs-MessageMeter identity from the export alone.
  openLine(os, "end", trace);
  os << ",\"events\":" << trace.events.size() << ",\"rounds\":" << rounds
     << ",\"messages\":" << messages << ",\"bits\":" << bits << "}\n";
}

}  // namespace

RecordSink::RecordSink(std::unique_ptr<std::ostream> owned)
    : owned_(std::move(owned)), os_(owned_.get()) {}

RecordSink::RecordSink(std::ostream& os) : os_(&os) {}

RecordSink::~RecordSink() { os_->flush(); }

void RecordSink::consume(const TrialTrace& trace) {
  std::ostringstream os;
  os.precision(12);
  writeBlock(os, trace);
  const std::lock_guard<std::mutex> lock(mutex_);
  *os_ << os.str();
  os_->flush();
}

}  // namespace bzc::obs
