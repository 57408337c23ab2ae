#include "sim/network.h"

#include <algorithm>

namespace cht::sim {

Duration Network::sample_delay(RealTime now, bool& lose, bool& duplicate) {
  lose = false;
  duplicate = false;
  if (now >= config_.gst) {
    return Duration::micros(rng_.next_in(config_.delta_min.to_micros(),
                                         config_.delta.to_micros()));
  }
  if (rng_.next_bool(config_.pre_gst_loss_probability)) lose = true;
  if (rng_.next_bool(config_.pre_gst_duplicate_probability)) duplicate = true;
  return Duration::micros(
      rng_.next_in(NetworkConfig::pre_gst_delay_min.to_micros(),
                   config_.pre_gst_delay_max.to_micros()));
}

void Network::set_deliver_fn(DeliverFn fn) {
  queue_.set_deliver_fn([this, fn = std::move(fn)](const Message& message) {
    ++stats_.delivered;
    fn(message);
  });
}

void Network::count_send(const char* type) {
  for (const auto& [known, count] : sent_counters_) {
    if (known == type) {
      ++*count;
      return;
    }
  }
  std::int64_t* count = &stats_.sent_by_type[type];
  sent_counters_.emplace_back(type, count);
  ++*count;
}

void Network::send(Message message) {
  const RealTime now = queue_.now();
  ++stats_.sent;
  count_send(message.type);
  if (trace_ != nullptr && trace_->network_enabled()) {
    trace_->record(now, message.from, "net.send",
                   std::string(message.type) + " -> p" +
                       std::to_string(message.to.index()));
  }

  if (down_links_.contains({message.from.index(), message.to.index()})) {
    ++stats_.dropped;
    return;
  }

  bool lose = false;
  bool duplicate = false;
  Duration delay = sample_delay(now, lose, duplicate);
  if (auto it = extra_delay_.find({message.from.index(), message.to.index()});
      it != extra_delay_.end()) {
    delay = delay + it->second;
    extra_delay_.erase(it);
  }
  if (lose) {
    ++stats_.dropped;
    return;
  }

  RealTime arrival = now + delay;
  // In-flight messages obey the delta bound once the system stabilizes.
  // (Compared as arrival - delta so gst == RealTime::max() cannot overflow.)
  if (now < config_.gst && arrival - config_.delta > config_.gst) {
    arrival = config_.gst + Duration::micros(rng_.next_in(
                                config_.delta_min.to_micros(),
                                config_.delta.to_micros()));
    arrival = std::max(arrival, now + config_.delta_min);
  }

  if (duplicate) {
    // The only delivery that copies its envelope (the payload is shared).
    queue_.schedule_delivery(arrival, message);
    arrival = arrival + config_.delta_min;  // duplicates arrive later
  }
  queue_.schedule_delivery(arrival, std::move(message));
}

void Network::set_link_down(ProcessId from, ProcessId to, bool down) {
  if (down) {
    down_links_.insert({from.index(), to.index()});
  } else {
    down_links_.erase({from.index(), to.index()});
  }
}

void Network::set_process_isolated(ProcessId p, bool isolated, int n) {
  for (int i = 0; i < n; ++i) {
    if (i == p.index()) continue;
    set_link_down(p, ProcessId(i), isolated);
    set_link_down(ProcessId(i), p, isolated);
  }
}

void Network::add_link_delay(ProcessId from, ProcessId to, Duration extra) {
  extra_delay_[{from.index(), to.index()}] = extra;
}

}  // namespace cht::sim
