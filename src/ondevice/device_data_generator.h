#ifndef SAGA_ONDEVICE_DEVICE_DATA_GENERATOR_H_
#define SAGA_ONDEVICE_DEVICE_DATA_GENERATOR_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "ondevice/source_record.h"

namespace saga::ondevice {

/// The synthetic "user data ecosystem": raw records from all sources
/// plus, for evaluation only, the true person behind each record.
struct DeviceDataset {
  std::vector<SourceRecord> records;
  /// truth[i] = ground-truth person index of records[i].
  std::vector<uint32_t> truth;
  size_t num_persons = 0;
  /// Per person: the conversation topics their interactions mention
  /// (context for the "message Tim about SIGMOD" resolution test).
  std::vector<std::vector<std::string>> person_topics;
  /// Per person: full ground-truth name.
  std::vector<std::string> person_names;
};

/// Generates overlapping multi-source records for `num_persons`
/// persons with format variation, duplicates, and name ambiguity (§5
/// "Personal KG Construction" motivating example).
DeviceDataset GenerateDeviceData(int num_persons);

}  // namespace saga::ondevice

#endif  // SAGA_ONDEVICE_DEVICE_DATA_GENERATOR_H_
