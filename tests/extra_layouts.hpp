// The extra-metric names every declarative trial of one layout carries, in
// order. Bench JSON rows and tools/diff_bench_json.py key on these names.
#pragma once

#include <string>
#include <vector>

#include "runtime/experiment.hpp"

namespace bzc::layouts {

/// Agreement and Pipeline trials (runtime/experiment.cpp).
inline const std::vector<std::string> kAgreement = {
    "fracAgreeing",  "compromised",    "agreementRounds", "meanEstimate",
    "answered",      "dropped",        "flipped",         "misrouted",
    "forged",        "coalitionHits",  "beaconForged",    "coalitionSubsets",
    "combinedScore", "wrongDecisions", "blameTotal",      "blameConcentration",
    "blameTopShare", "blameSubset0",   "blameSubset1",    "blameSubset2",
    "blameSubset3"};

/// Churn trials (churn/epoch_runner.cpp).
inline const std::vector<std::string> kChurn = {
    "epochs",    "recounts", "finalN",        "growth",        "joins",     "leaves",
    "rewires",   "finalByz", "byzInflation",  "meanStaleness", "maxStaleness",
    "meanDrift", "maxDrift", "meanGap",       "gapDrift",      "lastAgree"};

template <typename V>
std::vector<std::string> namesOf(const NamedValues<V>& record) {
  std::vector<std::string> names;
  for (const auto& entry : record) names.push_back(entry.first);
  return names;
}

}  // namespace bzc::layouts
