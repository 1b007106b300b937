#include "ondevice/device_data_generator.h"

#include <array>

namespace saga::ondevice {

namespace {

constexpr std::array<const char*, 20> kFirstNames = {
    "Timothy", "Sarah", "Miguel",  "Anna",   "Wei",
    "Priya",   "Oliver", "Fatima", "Jonas",  "Keiko",
    "Lucas",   "Ingrid", "Ahmed",  "Claire", "Viktor",
    "Amara",   "Diego",  "Hana",   "Samuel", "Nora"};

constexpr std::array<const char*, 20> kLastNames = {
    "Chen",   "Okafor",  "Garcia", "Lindqvist", "Tanaka",
    "Patel",  "Novak",   "Haddad", "Moreau",    "Kim",
    "Silva",  "Fischer", "Ali",    "Jensen",    "Romano",
    "Ivanov", "Mendes",  "Sato",   "Berg",      "Dubois"};

constexpr std::array<const char*, 6> kShortNameOf = {
    "Tim", "Sara", "Mig", "Ann", "Wei", "Pri"};

constexpr std::array<const char*, 16> kTopics = {
    "SIGMOD draft",      "soccer practice",  "quarterly budget",
    "birthday party",    "apartment lease",  "hiking trip",
    "piano recital",     "code review",      "dentist appointment",
    "wedding planning",  "book club",        "tax documents",
    "school pickup",     "fantasy league",   "garden project",
    "conference travel"};

std::string FormatPhone(Rng* rng, const std::string& digits) {
  // Same number, three rendered formats.
  switch (rng->Uniform(3)) {
    case 0:
      return "+1 " + digits.substr(0, 3) + " " + digits.substr(3, 3) + " " +
             digits.substr(6);
    case 1:
      return "(" + digits.substr(0, 3) + ") " + digits.substr(3, 3) + "-" +
             digits.substr(6);
    default:
      return digits;
  }
}

constexpr uint64_t kSeed = 99;
// Probability a person appears in each source.
constexpr double kContactsRate = 0.9;
constexpr double kMessagesRate = 0.7;
constexpr double kCalendarRate = 0.5;
// Extra duplicate records per person per source (format variants).
constexpr double kDuplicateRate = 0.25;
// Probability a non-contact record uses a short/variant name
// ("Tim" instead of "Timothy Chen").
constexpr double kNameVariantRate = 0.5;
// Fraction of persons deliberately sharing a first name with
// someone else but distinct topics (the two-Tims scenario).
constexpr double kSharedFirstNameRate = 0.1;

}  // namespace

DeviceDataset GenerateDeviceData(int num_persons) {
  Rng rng(kSeed);
  DeviceDataset out;
  out.num_persons = static_cast<size_t>(num_persons);

  struct Person {
    std::string first;
    std::string last;
    std::string phone_digits;  // canonical 10 digits
    std::string email;
    std::vector<std::string> topics;
  };
  std::vector<Person> persons;
  persons.reserve(out.num_persons);
  for (int i = 0; i < num_persons; ++i) {
    Person p;
    if (i > 0 && rng.Bernoulli(kSharedFirstNameRate)) {
      // Share a first name with an earlier person, different last name.
      p.first = persons[rng.Uniform(persons.size())].first;
    } else {
      p.first = kFirstNames[rng.Uniform(kFirstNames.size())];
    }
    p.last = kLastNames[i % kLastNames.size()] +
             (i >= static_cast<int>(kLastNames.size())
                  ? std::to_string(i / kLastNames.size())
                  : "");
    p.phone_digits = "555";
    for (int d = 0; d < 7; ++d) {
      p.phone_digits += static_cast<char>('0' + rng.Uniform(10));
    }
    p.email = std::string(1, static_cast<char>(
                                 std::tolower(p.first[0]))) +
              "." + p.last + "@example.com";
    for (char& c : p.email) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    // 2 distinct topics per person; namesakes get disjoint topics with
    // high probability because topics are drawn independently.
    const size_t t1 = rng.Uniform(kTopics.size());
    size_t t2 = rng.Uniform(kTopics.size());
    if (t2 == t1) t2 = (t1 + 7) % kTopics.size();
    p.topics = {kTopics[t1], kTopics[t2]};
    out.person_topics.push_back(p.topics);
    out.person_names.push_back(p.first + " " + p.last);
    persons.push_back(std::move(p));
  }

  int next_id = 0;
  auto add_record = [&](SourceKind source, uint32_t person_idx,
                        bool variant_name) {
    const Person& p = persons[person_idx];
    SourceRecord rec;
    rec.source = source;
    rec.native_id = std::string(SourceKindName(source)) + ":" +
                    std::to_string(next_id++);
    rec.timestamp = 1 + static_cast<int64_t>(rng.Uniform(1000));
    // Names: contacts carry full names; messages/calendar may carry
    // short variants.
    if (variant_name) {
      // Short first-name-only form when available ("Tim").
      std::string short_name = p.first.substr(0, 3);
      for (size_t i = 0; i < kFirstNames.size(); ++i) {
        if (p.first == kFirstNames[i] && i < kShortNameOf.size()) {
          short_name = kShortNameOf[i];
          break;
        }
      }
      rec.name = rng.Bernoulli(0.5) ? short_name : p.first;
    } else {
      rec.name = p.first + " " + p.last;
    }
    // Field availability differs by source: contacts know phone+email,
    // messages know phone, calendar knows email (the Fig-7 setup).
    switch (source) {
      case SourceKind::kContacts:
        rec.phone = FormatPhone(&rng, p.phone_digits);
        if (rng.Bernoulli(0.8)) rec.email = p.email;
        break;
      case SourceKind::kMessages:
        rec.phone = FormatPhone(&rng, p.phone_digits);
        for (const std::string& topic : p.topics) {
          if (rng.Bernoulli(0.8)) {
            rec.interactions.push_back("About the " + topic +
                                       ", let's sync tomorrow.");
          }
        }
        break;
      case SourceKind::kCalendar:
        rec.email = p.email;
        rec.interactions.push_back("Meeting: " + p.topics[0]);
        break;
    }
    out.records.push_back(std::move(rec));
    out.truth.push_back(person_idx);
  };

  for (uint32_t i = 0; i < out.num_persons; ++i) {
    if (rng.Bernoulli(kContactsRate)) {
      add_record(SourceKind::kContacts, i, false);
      if (rng.Bernoulli(kDuplicateRate)) {
        add_record(SourceKind::kContacts, i,
                   rng.Bernoulli(kNameVariantRate));
      }
    }
    if (rng.Bernoulli(kMessagesRate)) {
      add_record(SourceKind::kMessages, i,
                 rng.Bernoulli(kNameVariantRate));
      if (rng.Bernoulli(kDuplicateRate)) {
        add_record(SourceKind::kMessages, i,
                   rng.Bernoulli(kNameVariantRate));
      }
    }
    if (rng.Bernoulli(kCalendarRate)) {
      add_record(SourceKind::kCalendar, i,
                 rng.Bernoulli(kNameVariantRate));
    }
  }
  return out;
}

}  // namespace saga::ondevice
