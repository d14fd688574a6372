#include "src/tier/topology.h"

#include <algorithm>
#include <utility>

#include "src/edge/protocol.h"
#include "src/util/hash.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace offload::tier {

namespace {

/// Model files belonging to `app` in `store` ("<app>.desc",
/// "<app>.weights", "<app>.rear.weights").
std::vector<const nn::ModelFile*> app_files(const edge::ModelStore& store,
                                            const std::string& app) {
  std::vector<const nn::ModelFile*> out;
  const std::string prefix = app + ".";
  for (const nn::ModelFile& f : store.files()) {
    if (util::starts_with(f.name, prefix)) out.push_back(&f);
  }
  return out;
}

}  // namespace

net::ChannelConfig TierConfig::default_uplink() {
  // Edge → regional cloud: a fat WAN path, but 20 ms away each way.
  net::ChannelConfig ch;
  ch.a_to_b.bandwidth_bps = 200e6;
  ch.a_to_b.latency = sim::SimTime::millis(20);
  ch.b_to_a.bandwidth_bps = 200e6;
  ch.b_to_a.latency = sim::SimTime::millis(20);
  return ch;
}

net::ChannelConfig TierConfig::default_peer_link() {
  // Edge ↔ edge: same-rack LAN.
  net::ChannelConfig ch;
  ch.a_to_b.bandwidth_bps = 1e9;
  ch.a_to_b.latency = sim::SimTime::micros(500);
  ch.b_to_a.bandwidth_bps = 1e9;
  ch.b_to_a.latency = sim::SimTime::micros(500);
  return ch;
}

Topology::Topology(sim::Simulation& sim, fleet::EdgeFleet& fleet,
                   TierConfig config)
    : sim_(sim),
      fleet_(fleet),
      config_(std::move(config)),
      steal_rng_(config_.steal_seed) {
  anchor_ = net::Channel::make(sim_, config_.uplink, "tier/uplink", "cloud");
  if (config_.obs) anchor_->set_obs(config_.obs);
  if (config_.on_channel) config_.on_channel(*anchor_);

  edge::EdgeServerConfig cloud;
  cloud.profile = config_.cloud_profile;
  cloud.scheduler.replicas = config_.cloud_replicas;
  // The cloud is a vanilla EdgeServer speaking the unmodified protocol.
  // No receipts (the origin edge already gave the client its kAccepted;
  // the topology synthesizes kDone when relaying the result) and no
  // sessions (escalated jobs are one-shot self-contained snapshots).
  cloud.ack_snapshots = false;
  cloud.keep_sessions = false;
  cloud.obs = config_.obs;
  cloud.obs_name = "cloud";
  cloud_ = std::make_unique<edge::EdgeServer>(sim_, anchor_->b(),
                                              std::move(cloud));

  for (std::size_t k = 0; k < fleet_.servers_up(); ++k) {
    fleet_.server(k).set_escalation_handler(
        [this, k](edge::EscalationRequest req) {
          return escalate(k, std::move(req));
        });
    if (config_.steal) {
      fleet_.server(k).set_admission_hook([this] { arm_steal_tick(); });
    }
  }
}

Topology::~Topology() = default;

std::string Topology::server_label(std::size_t index) const {
  return index == kCloud ? "cloud" : fleet_.server_name(index);
}

bool Topology::escalate(std::size_t origin, edge::EscalationRequest req) {
  // Up-tier execution needs the model pushed from the origin's store; a
  // job whose model never finished pre-sending sheds normally instead.
  if (!fleet_.server(origin).model_store().can_instantiate(req.app)) {
    return false;
  }
  ++stats_.escalations;
  count("escalations");
  start_relay(origin, std::move(req), kCloud, obs::SpanKind::kEscalate);
  return true;
}

void Topology::start_relay(std::size_t origin, edge::EscalationRequest req,
                           std::size_t target, obs::SpanKind kind) {
  const std::uint64_t id = next_relay_++;
  Relay r;
  r.id = id;
  r.origin = origin;
  r.target = target;
  r.app = std::move(req.app);
  r.payload = std::move(req.payload);
  r.reply_to = req.reply_to;
  r.ctx = req.ctx;
  r.origin_epoch = fleet_.server(origin).boot_epoch();
  r.origin_acks = fleet_.server(origin).acks();

  // One dedicated channel per relayed job: a reply arriving on it can
  // only belong to this job, so there is no correlation ambiguity, and
  // anything arriving after the relay closed is simply ignored.
  const std::string label = "tier/relay" + std::to_string(id);
  r.channel = net::Channel::make(
      sim_, target == kCloud ? config_.uplink : config_.peer_link, label,
      server_label(target));
  if (config_.obs) r.channel->set_obs(config_.obs);
  if (config_.on_channel) config_.on_channel(*r.channel);
  (target == kCloud ? *cloud_ : fleet_.server(target)).attach(r.channel->b());
  r.channel->a().set_handler([this, id](const net::Message& m) {
    on_relay_message(id, m);
  });
  r.channel->a().set_failure_handler(
      [this, id](const net::Message&, int) {
        // The tier link gave up (ARQ exhausted — e.g. a blackout window
        // outlasted the retransmit budget): one typed failure, now.
        auto it = relays_.find(id);
        if (it != relays_.end() && !it->second.done) {
          fail_relay(it->second, edge::ControlKind::kExpired);
        }
      });

  if (config_.obs) {
    r.span = config_.obs->trace.open(
        r.ctx.trace, r.ctx.root, kind,
        std::string(obs::span_kind_name(kind)) + ":" + r.app, label,
        sim_.now());
    config_.obs->trace.attr(r.span, "origin", server_label(origin));
    config_.obs->trace.attr(r.span, "target", server_label(target));
  }

  // The per-hop deadline budget: no result by then → the client hears a
  // typed kExpired (and anything later lands on a dead relay).
  r.watchdog = sim_.schedule(config_.escalation_budget, [this, id] {
    auto it = relays_.find(id);
    if (it != relays_.end() && !it->second.done) {
      fail_relay(it->second, edge::ControlKind::kExpired);
    }
  });

  auto [it, inserted] = relays_.emplace(id, std::move(r));
  send_offer(it->second);
}

void Topology::send_offer(Relay& r) {
  // Content-addressed model push: digests first, bodies only for what the
  // executor's blob cache is missing. Repeat escalations of an app are
  // digest-sized after the first.
  edge::ModelOfferPayload offer;
  for (const nn::ModelFile* f :
       app_files(fleet_.server(r.origin).model_store(), r.app)) {
    offer.files.push_back(
        {f->name, util::fnv1a(std::span(f->content)), f->size()});
  }
  net::Message msg;
  msg.type = net::MessageType::kModelOffer;
  msg.name = r.app;
  msg.payload = offer.encode();
  r.channel->a().send(std::move(msg));
}

void Topology::send_files(Relay& r, const std::vector<std::string>& names) {
  edge::ModelFilesPayload payload;
  for (const nn::ModelFile* f :
       app_files(fleet_.server(r.origin).model_store(), r.app)) {
    if (std::find(names.begin(), names.end(), f->name) != names.end()) {
      payload.files.push_back(*f);
    }
  }
  ++stats_.model_pushes;
  count("model_pushes");
  net::Message msg;
  msg.type = net::MessageType::kModelFiles;
  msg.name = r.app;
  msg.payload = payload.encode();
  r.channel->a().send(std::move(msg));
}

void Topology::send_snapshot(Relay& r) {
  net::Message msg;
  msg.type = net::MessageType::kSnapshot;
  msg.name = r.app;
  msg.payload = r.payload;
  // No transmit span to close at the executor (span 0 is a no-op there);
  // the relay's own escalate/steal/migrate span covers the whole hop.
  msg.ctx = {r.ctx.trace, 0, r.ctx.root};
  r.snapshot_sent = true;
  r.channel->a().send(std::move(msg));
}

void Topology::on_relay_message(std::uint64_t id, const net::Message& m) {
  auto it = relays_.find(id);
  if (it == relays_.end() || it->second.done) return;
  Relay& r = it->second;
  if (!m.payload.empty() && !edge::payload_intact(m)) {
    // Corrupted on the tier link (a corrupt-migration fault). Endpoint::
    // send stamps a *fresh* CRC, so relaying these bytes onward would
    // launder the damage into a checksum-valid message the client trusts.
    // Never forward them: re-drive the exchange from our pristine copy.
    return resend_leg(r);
  }
  switch (m.type) {
    case net::MessageType::kAck:
      // kHave (cache covered the offer) or the post-store ACK — either
      // way the executor now holds the model.
      if (!r.snapshot_sent) send_snapshot(r);
      return;
    case net::MessageType::kResultSnapshot:
      finish_relay(r, m);
      return;
    case net::MessageType::kControl:
      break;
    default:
      return;
  }
  const edge::ControlKind kind = edge::decode_control(m).kind;
  switch (kind) {
    case edge::ControlKind::kSendFiles:
      send_files(r, edge::FileListPayload::decode(std::span(m.payload)).names);
      return;
    case edge::ControlKind::kOverloaded:
    case edge::ControlKind::kExpired:
    case edge::ControlKind::kRejected:
      // The executor shed, deadline-cancelled or refused the job: relay
      // the typed verdict verbatim; the client falls back exactly as if
      // its own edge had said it.
      fail_relay(r, kind);
      return;
    case edge::ControlKind::kModelMissing:
      // The executor crashed between our push and the snapshot: push
      // again from the offer.
      r.snapshot_sent = false;
      return resend_leg(r);
    case edge::ControlKind::kCorruptPayload:
      // Damaged in flight (a corrupt-migration fault): the bytes are
      // still pristine here, so resend whatever leg was corrupted.
      return resend_leg(r);
    case edge::ControlKind::kNeedFull:
    case edge::ControlKind::kNotInstalled:
      // Structurally impossible (relays carry self-contained snapshots to
      // installed executors); if it happens anyway, fail typed, never hang.
      fail_relay(r, edge::ControlKind::kExpired);
      return;
    case edge::ControlKind::kAccepted:  // the client holds the origin's
    case edge::ControlKind::kDone:      // receipts; finish_relay sends kDone
    case edge::ControlKind::kRedirect:
    case edge::ControlKind::kHave:
    case edge::ControlKind::kInstalled:
    case edge::ControlKind::kUnknown:
      return;
  }
}

void Topology::resend_leg(Relay& r) {
  // Bounded: a relay re-drives its exchange at most max_relay_retries
  // times, then fails typed.
  if (r.retries++ >= config_.max_relay_retries) {
    fail_relay(r, edge::ControlKind::kExpired);
  } else if (r.snapshot_sent) {
    send_snapshot(r);  // the executor simply runs it again
  } else {
    send_offer(r);
  }
}

bool Topology::origin_alive(const Relay& r) {
  const edge::EdgeServer& origin = fleet_.server(r.origin);
  return !origin.down() && origin.boot_epoch() == r.origin_epoch;
}

void Topology::finish_relay(Relay& r, const net::Message& result) {
  if (r.done) return;
  if (!origin_alive(r)) {
    // The edge the client is talking to died since the job climbed; its
    // endpoint must stay silent (a dead host cannot speak). The client's
    // supervisor times out and recovers — it never adopts this result, so
    // it can never diverge from the retry it is about to make.
    ++stats_.results_dropped;
    count("results_dropped");
    close_relay(r, "dropped");
    return;
  }
  if (r.origin_acks) {
    // The origin promised receipts; honor its contract before the result.
    r.reply_to->send(
        edge::encode_control({edge::ControlKind::kDone, r.app, std::nullopt}));
  }
  r.reply_to->send(result);  // send() stamps a fresh id and CRC
  ++stats_.relays_completed;
  count("relays_completed");
  close_relay(r, "completed");
}

void Topology::fail_relay(Relay& r, edge::ControlKind kind) {
  if (r.done) return;
  if (!origin_alive(r)) {
    ++stats_.results_dropped;
    count("results_dropped");
    close_relay(r, "dropped");
    return;
  }
  r.reply_to->send(edge::encode_control({kind, r.app, std::nullopt}));
  ++stats_.relays_failed;
  count("relays_failed");
  close_relay(r, "failed");
}

void Topology::close_relay(Relay& r, const char* outcome) {
  r.done = true;
  if (r.watchdog.valid()) sim_.cancel(r.watchdog);
  r.payload.clear();
  if (config_.obs && r.span) {
    config_.obs->trace.attr(r.span, "outcome", outcome);
    config_.obs->trace.close(r.span, sim_.now());
  }
  // The channel stays alive (in-flight deliveries may still reference
  // it); its handler ignores everything now that the relay is done.
}

std::size_t Topology::drain(std::size_t victim, std::size_t target) {
  edge::EdgeServer& v = fleet_.server(victim);
  const bool to_cloud = target == kCloud;
  std::size_t moved = 0;
  // Draining to the cloud leaves differential jobs queued at the victim:
  // their session realm lives there, and the client has no cloud
  // endpoint to be redirected to.
  while (auto job = v.steal_job(/*relayable_only=*/to_cloud)) {
    if (job->differential) {
      // Client-visible redirect: the supervisor re-targets the named
      // peer, re-presends, and replays — the one migration the snapshot
      // cannot make transparent.
      job->reply_to->send(edge::encode_control(
          {edge::ControlKind::kRedirect, job->app, target}));
      ++stats_.redirects;
      count("redirects");
      if (config_.obs) {
        config_.obs->trace.emit(job->ctx.trace, job->ctx.root,
                                obs::SpanKind::kMigrate,
                                "redirect:" + server_label(target), "tier",
                                sim_.now(), sim_.now(), 0.0);
      }
      ++moved;
      continue;
    }
    if (relay_job(victim, std::move(*job), target, obs::SpanKind::kMigrate)) {
      ++stats_.drained;
      count("drained");
    }
    ++moved;
  }
  return moved;
}

bool Topology::relay_job(std::size_t origin,
                         edge::EdgeServer::MigratableJob job,
                         std::size_t target, obs::SpanKind kind) {
  if (!fleet_.server(origin).model_store().can_instantiate(job.app)) {
    // Withdrawn but unrunnable elsewhere (no model to push): one typed
    // failure beats a silent drop.
    job.reply_to->send(edge::encode_control(
        {edge::ControlKind::kExpired, job.app, std::nullopt}));
    ++stats_.relays_failed;
    count("relays_failed");
    return false;
  }
  edge::EscalationRequest req;
  req.app = std::move(job.app);
  req.payload = std::move(job.payload);
  req.reply_to = job.reply_to;
  req.ctx = job.ctx;
  req.reason = obs::span_kind_name(kind);
  start_relay(origin, std::move(req), target, kind);
  return true;
}

int Topology::outstanding_relays(std::size_t server) const {
  int n = 0;
  for (const auto& [id, r] : relays_) {
    if (!r.done && r.origin == server) ++n;
  }
  return n;
}

void Topology::arm_steal_tick() {
  if (!config_.steal || tick_armed_) return;
  tick_armed_ = true;
  sim_.schedule(config_.steal_interval, [this] { steal_tick(); });
}

void Topology::steal_tick() {
  tick_armed_ = false;
  ++stats_.steal_ticks;
  const std::size_t n = fleet_.servers_up();
  const sim::SimTime now = sim_.now();
  // A thief takes at most one job per tick (its queue gauge lags the
  // relay's model push, so without the cap one idle edge would soak up a
  // whole backlog sight-unseen).
  std::vector<char> took(n, 0);
  for (;;) {
    // Victim: the deepest backlog at or above the threshold (ties go to
    // the lowest index — deterministic).
    std::size_t victim = n;
    std::size_t deepest = std::max<std::size_t>(config_.steal_min_backlog, 1);
    for (std::size_t k = 0; k < n; ++k) {
      if (fleet_.server(k).down()) continue;
      const std::size_t depth = fleet_.server(k).scheduler().queue_depth();
      if (depth >= deepest && (victim == n || depth > deepest)) {
        victim = k;
        deepest = depth;
      }
    }
    if (victim == n) break;
    // Thieves: fully idle peers that have not taken a job this tick.
    std::vector<std::size_t> idle;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == victim || took[k] || fleet_.server(k).down()) continue;
      const serve::Scheduler& sched = fleet_.server(k).scheduler();
      if (sched.queue_depth() == 0 && sched.busy_lanes(now) == 0) {
        idle.push_back(k);
      }
    }
    if (idle.empty()) break;
    const std::size_t thief =
        idle[steal_rng_.next_below(static_cast<std::uint32_t>(idle.size()))];
    auto job = fleet_.server(victim).steal_job(/*relayable_only=*/true);
    if (!job ||
        !relay_job(victim, std::move(*job), thief, obs::SpanKind::kSteal)) {
      break;
    }
    took[thief] = 1;
    ++stats_.steals;
    count("steals");
  }
  // Keep ticking while backlog remains; otherwise the tick dies with the
  // load and the next admission re-arms it.
  for (std::size_t k = 0; k < n; ++k) {
    if (!fleet_.server(k).down() &&
        fleet_.server(k).scheduler().queue_depth() > 0) {
      arm_steal_tick();
      break;
    }
  }
}

}  // namespace offload::tier
