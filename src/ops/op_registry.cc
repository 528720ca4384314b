#include "ops/op_registry.h"

namespace llb {

OpRegistry::OpRegistry() {
  Register(kOpPhysicalWrite, ApplyPhysicalWrite);
  Register(kOpIdentityWrite, ApplyPhysicalWrite);
  Register(kOpInstallIdentity, ApplyPhysicalWrite);
  // Checkpoint records carry no page writes; applying one is a no-op.
  Register(kOpCheckpoint,
           [](OpContext&, const LogRecord&) { return Status::OK(); });
}

void OpRegistry::Register(uint16_t op_code, OpApplyFn fn) {
  fns_[op_code] = std::move(fn);
}

bool OpRegistry::Contains(uint16_t op_code) const {
  return fns_.count(op_code) > 0;
}

Status OpRegistry::Apply(OpContext& ctx, const LogRecord& rec) const {
  auto it = fns_.find(rec.op_code);
  if (it == fns_.end()) {
    return Status::Internal("no apply function for op code " +
                            std::to_string(rec.op_code));
  }
  return it->second(ctx, rec);
}

}  // namespace llb
