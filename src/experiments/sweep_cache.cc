#include "src/experiments/sweep_cache.h"

#include <cstdint>
#include <utility>

namespace accent {
namespace {

Json DurationToJson(SimDuration d) { return Json(static_cast<std::int64_t>(d.count())); }

Json PagerStatsToJson(const PagerStats& stats) {
  Json json;
  json["resident_hits"] = Json(stats.resident_hits);
  json["fillzero_faults"] = Json(stats.fillzero_faults);
  json["disk_faults"] = Json(stats.disk_faults);
  json["cow_faults"] = Json(stats.cow_faults);
  json["imag_faults"] = Json(stats.imag_faults);
  json["imag_pages_fetched"] = Json(stats.imag_pages_fetched);
  json["prefetched_pages"] = Json(stats.prefetched_pages);
  json["prefetch_hits"] = Json(stats.prefetch_hits);
  json["pageouts"] = Json(stats.pageouts);
  json["address_errors"] = Json(stats.address_errors);
  json["failed_fetches"] = Json(stats.failed_fetches);
  // Content-cache counters exist only when the page service was wired;
  // emitting them conditionally keeps every legacy row byte-identical (the
  // golden sweep digest hashes these dumps).
  if (stats.cache_local_hits != 0 || stats.cache_pages_confirmed != 0 ||
      stats.cache_pages_from_holders != 0 || stats.cache_holder_misses != 0 ||
      stats.cache_holder_failovers != 0 || stats.cache_pull_pages_served != 0 ||
      stats.cache_hash_rejects != 0) {
    json["cache_local_hits"] = Json(stats.cache_local_hits);
    json["cache_pages_confirmed"] = Json(stats.cache_pages_confirmed);
    json["cache_pages_from_holders"] = Json(stats.cache_pages_from_holders);
    json["cache_holder_misses"] = Json(stats.cache_holder_misses);
    json["cache_holder_failovers"] = Json(stats.cache_holder_failovers);
    json["cache_pull_pages_served"] = Json(stats.cache_pull_pages_served);
    json["cache_hash_rejects"] = Json(stats.cache_hash_rejects);
  }
  return json;
}

Json SpecToJson(const WorkloadSpec& spec) {
  Json json;
  json["name"] = Json(spec.name);
  json["real_bytes"] = Json(spec.real_bytes);
  json["zero_bytes"] = Json(spec.zero_bytes);
  json["resident_bytes"] = Json(spec.resident_bytes);
  json["real_regions"] = Json(spec.real_regions);
  json["zero_regions"] = Json(spec.zero_regions);
  json["pattern"] = Json(static_cast<int>(spec.pattern));
  json["touched_real_pages"] = Json(spec.touched_real_pages);
  json["resident_touched_overlap"] = Json(spec.resident_touched_overlap);
  json["zero_touches"] = Json(spec.zero_touches);
  json["compute_us"] = DurationToJson(spec.compute);
  json["scan_density"] = Json(spec.scan_density);
  return json;
}

Json MigrationToJson(const MigrationRecord& record) {
  Json json;
  json["proc"] = Json(record.proc.value);
  json["name"] = Json(record.name);
  json["strategy"] = Json(static_cast<int>(record.strategy));
  json["requested_us"] = DurationToJson(record.requested);
  json["excise_done_us"] = DurationToJson(record.excise_done);
  json["core_sent_us"] = DurationToJson(record.core_sent);
  json["rimas_sent_us"] = DurationToJson(record.rimas_sent);
  json["excise_amap_us"] = DurationToJson(record.excise_amap);
  json["excise_rimas_us"] = DurationToJson(record.excise_rimas);
  json["excise_overall_us"] = DurationToJson(record.excise_overall);
  json["core_arrived_us"] = DurationToJson(record.core_arrived);
  json["rimas_arrived_us"] = DurationToJson(record.rimas_arrived);
  json["insert_time_us"] = DurationToJson(record.insert_time);
  json["resumed_us"] = DurationToJson(record.resumed);
  json["resident_bytes_shipped"] = Json(record.resident_bytes_shipped);
  json["precopy_rounds"] = Json(record.precopy_rounds);
  json["precopy_bytes"] = Json(record.precopy_bytes);
  json["frozen_us"] = DurationToJson(record.frozen);
  if (record.strategy == TransferStrategy::kPreCopy) {
    // SLO-loop diagnostics exist only for pre-copy trials; emitting them
    // conditionally keeps every legacy row byte-identical (the golden sweep
    // digest hashes these dumps).
    json["precopy_wws_pages"] = Json(record.precopy_wws_pages);
    json["precopy_predicted_downtime_us"] = DurationToJson(record.precopy_predicted_downtime);
    json["precopy_flash_bytes"] = Json(record.precopy_flash_bytes);
    json["precopy_slo_met"] = Json(record.precopy_slo_met);
  }
  return json;
}

Json SeriesToJson(const std::vector<TrafficRecorder::Bucket>& series) {
  Json json = Json::Array{};
  for (const TrafficRecorder::Bucket& bucket : series) {
    Json entry;
    entry["start_us"] = DurationToJson(bucket.start);
    Json bytes = Json::Array{};
    for (ByteCount b : bucket.bytes) {
      bytes.Append(Json(b));
    }
    entry["bytes"] = std::move(bytes);
    json.Append(std::move(entry));
  }
  return json;
}

}  // namespace

Json TrialConfigToJson(const TrialConfig& config) {
  Json json;
  json["workload"] = Json(config.workload);
  json["strategy"] = Json(static_cast<int>(config.strategy));
  json["prefetch"] = Json(config.prefetch);
  json["seed"] = Json(config.seed);
  json["iou_caching"] = Json(config.iou_caching);
  json["frames_per_host"] = Json(static_cast<std::uint64_t>(config.frames_per_host));
  json["traffic_bucket_us"] = DurationToJson(config.traffic_bucket);
  if (config.strategy == TransferStrategy::kPreCopy) {
    // Round/SLO knobs change pre-copy results, so they belong in the trial's
    // identity; emitting them only for pre-copy keeps older rows
    // byte-identical.
    json["precopy_max_rounds"] = Json(config.precopy_max_rounds);
    json["precopy_stop_threshold"] = Json(static_cast<std::uint64_t>(config.precopy_stop_threshold));
    json["precopy_target_downtime_us"] = DurationToJson(config.precopy_target_downtime);
  }
  if (config.content_cache) {
    // The dedup plane adds hash riders and probe traffic, so it belongs in
    // the trial's identity; emitting it only when enabled keeps older rows
    // intact.
    json["content_cache"] = Json(true);
    json["content_cache_pages"] = Json(config.content_cache_pages);
  }
  if (config.checkpoint) {
    // The checkpoint put and the store's ack shift phase timings, so the
    // store belongs in the trial's identity; emitting it only when enabled
    // keeps older rows intact.
    json["checkpoint"] = Json(true);
  }
  return json;
}

Json TrialResultToJson(const TrialResult& result) {
  Json json;
  json["config"] = TrialConfigToJson(result.config);
  json["spec"] = SpecToJson(result.spec);
  json["migration"] = MigrationToJson(result.migration);
  json["finished_us"] = DurationToJson(result.finished);
  json["remote_exec_us"] = DurationToJson(result.remote_exec);
  json["bytes_total"] = Json(result.bytes_total);
  json["bytes_control"] = Json(result.bytes_control);
  json["bytes_core"] = Json(result.bytes_core);
  json["bytes_bulk"] = Json(result.bytes_bulk);
  json["bytes_fault"] = Json(result.bytes_fault);
  json["messages_total"] = Json(result.messages_total);
  json["series"] = SeriesToJson(result.series);
  json["series_bucket_us"] = DurationToJson(result.series_bucket);
  json["netmsg_busy_us"] = DurationToJson(result.netmsg_busy);
  json["dest_pager"] = PagerStatsToJson(result.dest_pager);
  json["real_bytes_transferred"] = Json(result.real_bytes_transferred);
  return json;
}

}  // namespace accent
