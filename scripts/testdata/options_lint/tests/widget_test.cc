#include "widget.h"

void WidgetTest() {
  RigConfig cfg;
  cfg.only_tests = 2;
  (void)cfg;
}
