#include "widget.h"

void RunWidgetBench() {
  WidgetOptions opts;
  opts.id = 7;
  RigConfig cfg;
  cfg.id = "rig";
  cfg.enabled[0] = cfg.enabled[2] = true;
  RigConfig fast{.rate = 0.25};
  (void)opts;
  (void)cfg;
  (void)fast;
}
