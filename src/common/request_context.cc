#include "common/request_context.h"

#include <cstdio>

#include "common/trace.h"

namespace saga {

Status RequestContext::Check(std::string_view where) const {
  if (!deadline_.expired()) return Status::OK();
  // Mark the open span so the trace names where the deadline ran out.
  obs::MarkSpanError(StatusCode::kDeadlineExceeded);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "deadline exceeded in %.*s (%.2fms overdue)",
                static_cast<int>(where.size()), where.data(),
                -deadline_.RemainingMillis());
  return Status::DeadlineExceeded(buf);
}

}  // namespace saga
