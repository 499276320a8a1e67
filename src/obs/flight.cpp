#include "obs/flight.hpp"

#include "smc/json.hpp"

namespace ppde::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::add(QueryFlight record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) records_.pop_front();
}

std::vector<QueryFlight> FlightRecorder::recent(std::size_t n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<QueryFlight> out;
  const std::size_t take = n < records_.size() ? n : records_.size();
  out.reserve(take);
  for (auto it = records_.rbegin(); out.size() < take; ++it)
    out.push_back(*it);
  return out;
}

std::string FlightRecorder::to_json(const QueryFlight& record) {
  smc::JsonWriter json;
  json.field("seq", record.seq);
  json.field("req", std::string_view(record.req));
  json.field("n", record.n);
  json.field("trials", record.trials);
  json.field("outcome", std::string_view(record.outcome));
  if (!record.detail.empty())
    json.field("detail", std::string_view(record.detail));
  json.field("queue_wait_micros", record.queue_wait_micros);
  json.field("trials_executed", record.trials_executed);
  json.field("trials_folded", record.trials_folded);
  json.field("batches", record.batches);
  json.field("reassigned", record.reassigned);
  if (!record.verdict.empty())
    json.field("verdict", std::string_view(record.verdict));
  if (!record.digest.empty())
    json.field("digest", std::string_view(record.digest));
  json.field("wall_seconds", record.wall_seconds);
  std::string workers = "[";
  for (std::size_t i = 0; i < record.workers.size(); ++i) {
    const WorkerLatency& worker = record.workers[i];
    smc::JsonWriter entry;
    entry.field("worker", worker.worker);
    entry.field("batches", worker.batches);
    entry.field("total_micros", worker.total_micros);
    entry.field("max_micros", worker.max_micros);
    if (i != 0) workers += ',';
    workers += entry.finish();
  }
  workers += ']';
  json.raw_field("workers", workers);
  return json.finish();
}

}  // namespace ppde::obs
