// Fixture for scripts/check_options_used.sh: the lint must report
// RigConfig::only_tests and nothing else.
#include <array>
#include <string>

struct WidgetOptions {
  int id = 0;  // bench/ sets it.
};

struct RigConfig {
  // A string field named like WidgetOptions' checked `id`: bench/ sets
  // it on a resolved RigConfig receiver, which is no failure.
  std::string id;
  // bench/ sets it by element: `cfg.enabled[0] = true`.
  std::array<bool, 3> enabled{};
  double rate = 0.5;   // bench/ sets it by designated initializer.
  int only_tests = 1;  // Only tests/ set it: the one UNUSED OPTION.
};
