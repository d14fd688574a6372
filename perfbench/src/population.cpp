// population: an open-loop client population (sim::workload::Generator:
// Poisson sessions over 10^5 heterogeneous clients, a diurnal curve and one
// flash crowd) routed by fleet::Balancer onto per-server serve::Schedulers
// with modeled service times and a bounded queue. A request every
// candidate server sheds falls back to modeled client-local execution.
// One op is one simulated minute; one round is one compressed day.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/fleet/balancer.h"
#include "src/serve/scheduler.h"
#include "src/sim/simulation.h"
#include "src/sim/workload.h"

namespace perfbench {
namespace {

namespace fleet = offload::fleet;
namespace serve = offload::serve;
namespace sim = offload::sim;
namespace util = offload::util;
namespace workload = offload::sim::workload;

/// The arrival and fleet parameters of bench_scale's 10^5-client cell
/// (bench/bench_scale.cpp): 6e-4 sessions/s per client, 16 single-lane
/// servers, at most 8 requests outstanding per server, a 3x flash crowd over
/// 5/60 of the day starting at 0.45 of it. bench_scale compresses a day into
/// 60 s; here it is stretched to 60 simulated minutes so that one op (one
/// minute) is a slice of the day, with the flash crowd keeping its share and
/// place. Session shape and device classes are bench_scale's too.
struct PopulationShape {
  std::uint64_t clients = 100000;
  double per_client_session_rate = 6e-4;
  int minutes = 60;  ///< one compressed day per round
  std::size_t servers = 16;
  /// bench_scale admits while fewer than 8 requests are outstanding on a
  /// server (queued or in service); with one lane that is 7 queued.
  std::size_t max_queue = 7;
  double flash_multiplier = 3.0;
  double flash_start_frac = 0.45;
  double flash_len_frac = 5.0 / 60.0;
};

PopulationShape shape_for(const Options& opt) {
  PopulationShape s;
  if (opt.tiny) {
    s.clients = 2000;
    s.per_client_session_rate = 5e-3;
    s.minutes = 5;
  }
  return s;
}

/// A content-addressed model offer instead of the blob.
constexpr double kDigestBytes = 64;

/// One round: a fresh simulation, generator, balancer and fleet of
/// schedulers, plus the round's tallies. Built by the set-up step.
class Round {
 public:
  Round(const PopulationShape& shape, std::uint64_t seed)
      : shape_(shape),
        balancer_(balancer_config(seed), shape.servers),
        outstanding_(shape.servers, 0),
        admitted_(shape.servers, 0),
        has_model_(shape.servers) {
    for (std::size_t s = 0; s < shape.servers; ++s) {
      serve::SchedulerConfig sc;
      sc.replicas = 1;
      sc.max_queue = shape.max_queue;
      servers_.push_back(std::make_unique<serve::Scheduler>(sim_, sc));
    }
    workload::Config wl;
    wl.clients = shape.clients;
    wl.seed = mix_seed(seed, 0x706f70ULL);
    const double day_s = 60.0 * shape.minutes;
    wl.arrivals.session_rate_per_s =
        shape.per_client_session_rate * static_cast<double>(shape.clients);
    wl.arrivals.diurnal.enabled = true;
    wl.arrivals.diurnal.period_s = day_s;
    wl.arrivals.diurnal.trough = 0.4;
    wl.arrivals.diurnal.peak = 1.0;
    wl.arrivals.diurnal.peak_at_frac = 0.5;
    wl.arrivals.flash_crowds = {{day_s * shape.flash_start_frac,
                                 day_s * shape.flash_len_frac,
                                 shape.flash_multiplier}};
    wl.session.mean_requests = 3.0;
    wl.session.mean_think_s = 1.0;
    wl.session.cache_ttl_s = 120.0;
    wl.session.warm_start_fraction = 0.1;
    for (auto& v : has_model_) {
      v.assign(workload::default_device_classes().size(), 0);
    }
    gen_ = std::make_unique<workload::Generator>(
        sim_, wl, [this](const workload::Request& r) { on_request(r); });
    gen_->start(sim::SimTime::seconds(day_s));
  }

  /// Advance one simulated minute; the last minute also drains every
  /// request still in flight. Returns the events fired.
  std::size_t run_minute(int minute, SpanLog* log, int parent,
                         std::uint64_t op) {
    log_ = log;
    route_ms_ = submit_ms_ = 0;
    route_calls_ = submit_calls_ = 0;
    std::size_t events;
    {
      ScopedSpan span(log, "sim.run", "sim", parent, op);
      events = sim_.run_until(sim::SimTime::seconds(60.0 * (minute + 1)));
      if (minute + 1 == shape_.minutes) events += sim_.run();
      if (log) {
        // One aggregated child span per called module and window keeps the
        // log bounded; its duration is the summed call time.
        const double start = log->at(span.index()).start_ms;
        log->add("fleet.route", "fleet", span.index(), op, start,
                 start + route_ms_, route_calls_);
        log->add("serve.submit", "serve", span.index(), op, start,
                 start + submit_ms_, submit_calls_);
      }
    }
    events_ += events;
    return events;
  }

  /// Requests are conserved: everything emitted completed on the edge or
  /// fell back, and no server holds work.
  bool conserved() const {
    if (emitted_ != completed_edge_ + shed_) return false;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      if (outstanding_[s] != 0 || servers_[s]->queue_depth() != 0) return false;
    }
    return true;
  }

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t completed_edge() const { return completed_edge_; }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t events() const { return events_; }
  std::uint64_t cold_sessions() const { return gen_->cold_sessions(); }
  const util::Samples& latency() const { return latency_; }
  const util::Samples& queue_wait() const { return queue_wait_; }
  double route_us_total() const { return route_us_total_; }
  double submit_us_total() const { return submit_us_total_; }
  std::uint64_t route_calls_total() const { return route_calls_total_; }
  std::uint64_t submit_calls_total() const { return submit_calls_total_; }

  serve::Scheduler::Stats server_totals() const {
    serve::Scheduler::Stats t;
    for (const auto& s : servers_) {
      t.launches += s->stats().launches;
      t.rejected += s->stats().rejected;
      t.peak_queue_depth =
          std::max(t.peak_queue_depth, s->stats().peak_queue_depth);
    }
    return t;
  }

  double max_server_share() const {
    std::uint64_t total = 0, most = 0;
    for (std::uint64_t a : admitted_) {
      total += a;
      most = std::max(most, a);
    }
    return total ? static_cast<double>(most) / static_cast<double>(total) : 0;
  }

 private:
  static fleet::BalancerConfig balancer_config(std::uint64_t seed) {
    fleet::BalancerConfig bc;
    bc.policy = "p2c";
    bc.seed = mix_seed(seed, 0x62616cULL);
    return bc;
  }

  void on_request(const workload::Request& req) {
    ++emitted_;
    const workload::DeviceClass& dc = gen_->device_class(req.device_class);
    const std::string key = "c" + std::to_string(req.client);
    std::vector<std::size_t> candidates;
    if (log_) {
      const auto t0 = Clock::now();
      candidates = balancer_.route(key, outstanding_);
      const double ms = ms_between(t0, Clock::now());
      route_ms_ += ms;
      route_us_total_ += ms * 1e3;
      ++route_calls_;
      ++route_calls_total_;
    } else {
      candidates = balancer_.route(key, outstanding_);
    }
    // A cold session pre-sends its model to the primary first: the whole
    // blob when that server has never seen it, else a digest offer.
    double upload_s = 0;
    if (req.cold_model) {
      char& has = has_model_[candidates.front()][req.device_class];
      const double bytes = has ? kDigestBytes : dc.model_mb * 1024 * 1024;
      upload_s = bytes * 8 / (dc.uplink_mbps * 1e6);
      has = 1;
    }
    const double service_s = dc.server_service_ms / 1e3;
    const double fallback_s = dc.local_fallback_s;
    const sim::SimTime arrival = req.at;
    auto submit = [this, candidates = std::move(candidates), service_s,
                   fallback_s, arrival] {
      for (std::size_t c : candidates) {
        serve::SubmitResult res;
        auto done = [this, c, arrival](const serve::RequestTiming& t) {
          --outstanding_[c];
          ++completed_edge_;
          latency_.add((sim_.now() - arrival).to_seconds());
          queue_wait_.add(t.queue_wait_s);
        };
        if (log_) {
          const auto t0 = Clock::now();
          res = servers_[c]->submit_opaque(service_s, std::move(done));
          const double ms = ms_between(t0, Clock::now());
          submit_ms_ += ms;
          submit_us_total_ += ms * 1e3;
          ++submit_calls_;
          ++submit_calls_total_;
        } else {
          res = servers_[c]->submit_opaque(service_s, std::move(done));
        }
        if (res.admitted) {
          ++outstanding_[c];
          ++admitted_[c];
          return;
        }
      }
      ++shed_;
      latency_.add(fallback_s);
    };
    if (upload_s > 0) {
      sim_.schedule(sim::SimTime::seconds(upload_s), std::move(submit));
    } else {
      submit();
    }
  }

  PopulationShape shape_;
  sim::Simulation sim_;
  fleet::Balancer balancer_;
  std::vector<std::unique_ptr<serve::Scheduler>> servers_;
  std::vector<int> outstanding_;
  std::vector<std::uint64_t> admitted_;
  std::vector<std::vector<char>> has_model_;  ///< [server][device class]
  std::unique_ptr<workload::Generator> gen_;

  std::uint64_t emitted_ = 0;
  std::uint64_t completed_edge_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t events_ = 0;
  util::Samples latency_;
  util::Samples queue_wait_;

  // Tracing (log_ non-null only in traced windows).
  SpanLog* log_ = nullptr;
  double route_ms_ = 0;
  double submit_ms_ = 0;
  std::uint64_t route_calls_ = 0;
  std::uint64_t submit_calls_ = 0;
  double route_us_total_ = 0;
  double submit_us_total_ = 0;
  std::uint64_t route_calls_total_ = 0;
  std::uint64_t submit_calls_total_ = 0;
};

}  // namespace

Report run_population(const Options& opt) {
  Report rep;
  const PopulationShape shape = shape_for(opt);
  SpanLog log;
  util::Samples setup_ms;
  util::Samples op_ms;
  util::Samples real_ms;
  std::unique_ptr<Round> det;  ///< the deterministic round, kept for metrics
  const int det_round = opt.trace ? 1 : 0;
  std::size_t first_traced_span = 0;
  std::uint64_t traced_windows = 0;
  std::uint64_t op_id = 0;
  double rss_mb = 0;  ///< peak through set-up and round 0
  const double measured_s = run_rounds(opt, [&](int round) {
    const bool traced = opt.trace && round > 0;
    if (traced && traced_windows == 0) first_traced_span = log.spans().size();
    // Building a round (simulation, generator, balancer, fleet) is this
    // workload's set-up. It takes well under a millisecond, too short to
    // time once against host noise, so every round's build is timed and
    // setup_s is their median, sampled across the whole run like the ops.
    const auto b0 = Clock::now();
    auto r = std::make_unique<Round>(shape, opt.seed);
    setup_ms.add(ms_between(b0, Clock::now()));
    for (int m = 0; m < shape.minutes; ++m) {
      ++rep.attempted;
      ++op_id;
      SpanLog* tl = traced ? &log : nullptr;
      ScopedSpan root(tl, "op", "bench", -1, op_id);
      const auto t0 = Clock::now();
      r->run_minute(m, tl, root.index(), op_id);
      const double ms = ms_between(t0, Clock::now());
      if (traced) {
        real_ms.add(ms);
        ++traced_windows;
      } else {
        op_ms.add(ms);
      }
    }
    if (!r->conserved()) {
      rep.fail("round " + std::to_string(round) + ": emitted " +
               std::to_string(r->emitted()) + " != edge " +
               std::to_string(r->completed_edge()) + " + fallback " +
               std::to_string(r->shed()) + " (or work left queued)");
    }
    if (round == det_round) det = std::move(r);
    if (round == 0) rss_mb = peak_rss_mb();
  });
  rep.notes.push_back(
      "population: one op = one simulated minute of an open-loop day over " +
      std::to_string(shape.clients) + " clients, " +
      std::to_string(shape.servers) + " single-lane servers, queue bound " +
      std::to_string(shape.max_queue) +
      " (bench_scale's 10^5-client cell, day stretched to " +
      std::to_string(shape.minutes) + " min); single sim engine");
  if (!det) throw std::runtime_error("population: no deterministic round ran");

  const util::Samples& lat = det->latency();
  const double emitted =
      det->emitted() ? static_cast<double>(det->emitted()) : 1;
  const double fallback = static_cast<double>(det->shed()) / emitted;
  if (!opt.trace) {
    rep.e2e("setup_s", setup_ms.median() / 1e3, "s");
    // 1400-2100 windows in a 25 s run: p98 has 28+ beyond it and sits
    // inside the flash-crowd minutes (5 of a day's 60) rather than at their
    // noisiest edge.
    add_wall_metrics(rep, op_ms, measured_s, 98);
    rep.e2e("peak_rss_mb", rss_mb, "MB");
    rep.e2e("sim_latency_s_p50", lat.count() ? lat.percentile(50) : 0, "s");
    rep.e2e("sim_latency_s_p99", lat.count() ? lat.percentile(99) : 0, "s");
    rep.e2e("sim_fallback_ratio", fallback, "ratio");
    rep.e2e("sim_edge_ratio", 1.0 - fallback, "ratio");
    return rep;
  }

  rep.notes.push_back(
      "fleet.route and serve.submit spans are the benchmark's own calls "
      "inside Simulation::run, summed per window; sim self time is the "
      "window minus those");
  const double windows = static_cast<double>(shape.minutes);
  const double traced =
      traced_windows ? static_cast<double>(traced_windows) : 1;
  const auto self = log.self_ms_by_layer(first_traced_span);
  const auto self_of = [&](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  const serve::Scheduler::Stats totals = det->server_totals();
  rep.layer("sim.dispatch_ms", self_of("sim") / traced, "ms");
  rep.layer("sim.events_per_window",
            static_cast<double>(det->events()) / windows,
            "count");
  rep.layer("sim.workload.requests", static_cast<double>(det->emitted()),
            "count");
  rep.layer("sim.workload.cold_sessions",
            static_cast<double>(det->cold_sessions()), "count");
  rep.layer("serve.submit_us",
            det->submit_calls_total()
                ? det->submit_us_total() /
                      static_cast<double>(det->submit_calls_total())
                : 0,
            "us");
  rep.layer("serve.launches", static_cast<double>(totals.launches), "count");
  rep.layer("serve.rejected", static_cast<double>(totals.rejected), "count");
  rep.layer("serve.peak_queue_depth",
            static_cast<double>(totals.peak_queue_depth), "count");
  rep.layer("serve.queue_wait_s_p99",
            det->queue_wait().count() ? det->queue_wait().percentile(99) : 0,
            "s");
  rep.layer("fleet.route_us",
            det->route_calls_total()
                ? det->route_us_total() /
                      static_cast<double>(det->route_calls_total())
                : 0,
            "us");
  rep.layer("fleet.max_server_share", det->max_server_share(), "ratio");
  add_self_times(rep, self, traced);
  add_trace_overhead(rep, real_ms, op_ms);
  if (!opt.spans_out.empty()) log.write_jsonl(opt.spans_out);
  return rep;
}

}  // namespace perfbench
