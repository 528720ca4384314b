#include "db/stats.h"

#include <sstream>

namespace llb {

std::string DbStats::ToString() const {
  std::ostringstream out;
  out << "ops=" << cache.ops_applied << " flushes=" << cache.pages_flushed
      << " iwof=" << cache.identity_writes
      << " decisions=" << cache.decisions
      << " logged=" << cache.decisions_logged
      << " p_log=" << ExtraLoggingProbability()
      << " log_bytes=" << log.bytes
      << " identity_bytes=" << log.identity_bytes
      << " backup_pages=" << backup_pages_copied
      << " log_channels=" << log_channels
      << " group_commits=" << log.group_commits
      << " durable_epoch=" << durable_epoch << " open_epoch=" << open_epoch;
  return out.str();
}

}  // namespace llb
