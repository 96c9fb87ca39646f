#include "odb/exec/batch_scanner.h"

#include <utility>

#include "odb/database.h"

namespace ode::odb::exec {

BatchScanner::BatchScanner(Database* db, std::string class_name,
                           const ProjectionMask* mask, size_t batch_size)
    : db_(db),
      class_name_(std::move(class_name)),
      mask_(mask),
      batch_size_(batch_size == 0 ? kDefaultBatchSize : batch_size) {}

Result<bool> BatchScanner::Next(RowBatch* batch) {
  batch->clear();
  if (done_) return false;
  ODE_RETURN_IF_ERROR(
      db_->ScanRawRecords(class_name_, cursor_, batch_size_, &raw_));
  if (raw_.records.empty()) {
    done_ = true;
    return false;
  }
  batch->cluster = raw_.cluster;
  batch->locals.reserve(raw_.records.size());
  batch->versions.reserve(raw_.records.size());
  batch->values.reserve(raw_.records.size());
  for (const HeapFile::RecordSpan& span : raw_.records) {
    cursor_ = span.local_id;
    ODE_ASSIGN_OR_RETURN(ProjectedRecord record,
                         DecodeObjectRecordProjected(raw_.bytes(span), mask_));
    batch->locals.push_back(span.local_id);
    batch->versions.push_back(record.version);
    batch->values.push_back(std::move(record.value));
    batch->skipped_fields += record.skipped_fields;
    batch->arena_bytes += span.length;
  }
  if (raw_.records.size() < batch_size_) done_ = true;
  return true;
}

}  // namespace ode::odb::exec
