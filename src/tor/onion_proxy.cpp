#include "tor/onion_proxy.h"

#include <algorithm>
#include <set>
#include <span>
#include <sstream>

#include "util/log.h"

namespace ting::tor {

using cells::Cell;
using cells::CellCommand;
using cells::RelayCommand;
using cells::RelayPayload;

namespace {
std::string path_str(const std::vector<dir::RelayDescriptor>& path,
                     std::size_t n) {
  std::ostringstream os;
  for (std::size_t i = 0; i < n && i < path.size(); ++i) {
    if (i) os << ",";
    os << "$" << path[i].fingerprint.hex();
  }
  return os.str();
}
}  // namespace

OnionProxy::OnionProxy(simnet::Network& net, simnet::HostId host,
                       OnionProxyConfig config, std::uint64_t seed)
    : net_(net), host_(host), config_(config), rng_(seed) {
  simnet::Listener* socks = net_.listen(host_, config_.socks_port);
  socks->set_on_accept(
      [this](simnet::ConnPtr conn) { handle_socks_connection(std::move(conn)); });
}

OnionProxy::~OnionProxy() {
  for (auto& [handle, circ] : circuits_) {
    if (circ->link) circ->link->set_on_cell({});
    if (circ->conn) circ->conn->set_on_close({});
  }
  for (auto& [id, stream] : streams_) {
    stream->on_message_ = {};
    stream->on_close_ = {};
    stream->on_connected_ = {};
    stream->on_fail_ = {};
  }
}

void OnionProxy::emit(const std::string& event) {
  if (event_sink_) event_sink_(event);
}

void OnionProxy::fetch_consensus(Endpoint authority,
                                 std::function<void()> on_done) {
  dir::Authority::fetch_consensus(
      net_, host_, authority,
      [this, on_done = std::move(on_done)](dir::Consensus c) {
        consensus_ = std::move(c);
        if (on_done) on_done();
      });
}

// ---- circuit construction --------------------------------------------------

CircuitHandle OnionProxy::build_circuit(
    const std::vector<dir::Fingerprint>& path,
    std::function<void(CircuitHandle)> on_built,
    std::function<void(std::string)> on_fail) {
  auto circ = std::make_shared<Circuit>();
  circ->handle = next_handle_++;
  circ->wire_id = next_wire_id_++;
  circ->on_built = std::move(on_built);
  circ->on_fail = std::move(on_fail);
  circuits_[circ->handle] = circ;

  // Client policies (§3.1): one-hop circuits are disallowed, and a relay
  // cannot appear more than once on a circuit. Failures surface
  // asynchronously (like tor's) so the FAILED event never precedes the
  // control port's EXTENDED reply.
  auto fail_async = [this, circ](std::string reason) {
    net_.loop().schedule(Duration::nanos(1),
                         [this, circ, reason = std::move(reason)]() {
                           fail_circuit(circ, reason);
                         });
  };
  if (path.size() < 2) {
    fail_async("one-hop circuits are not allowed");
    return circ->handle;
  }
  std::set<dir::Fingerprint> uniq(path.begin(), path.end());
  if (uniq.size() != path.size()) {
    fail_async("a relay may appear on a circuit only once");
    return circ->handle;
  }
  for (const auto& fp : path) {
    const dir::RelayDescriptor* desc = consensus_.find(fp);
    if (desc == nullptr) {
      fail_async("unknown relay $" + fp.hex());
      return circ->handle;
    }
    circ->planned.push_back(*desc);
  }
  emit("CIRC " + std::to_string(circ->handle) + " LAUNCHED");
  start_build(circ);
  return circ->handle;
}

void OnionProxy::start_build(const CircuitPtr& circ) {
  const dir::RelayDescriptor& entry = circ->planned.front();
  net_.connect(
      host_, Endpoint{entry.address, entry.or_port}, simnet::Protocol::kTor,
      [this, circ](simnet::ConnPtr conn) {
        if (circ->state != CircuitState::kBuilding) return;
        circ->conn = conn;
        conn->set_on_close([this, circ]() {
          if (circ->state == CircuitState::kBuilding ||
              circ->state == CircuitState::kBuilt)
            fail_circuit(circ, "entry connection closed");
        });
        // Link handshake first; the CREATE queues until the link opens.
        circ->link = OrLink::initiate(net_, conn);
        circ->link->set_on_cell(
            [this, circ](Bytes wire) { on_cell(circ, std::move(wire)); });
        circ->pending_handshake = crypto::ClientHandshake::start(rng_);
        Bytes create(circ->pending_handshake->ephemeral_public.begin(),
                     circ->pending_handshake->ephemeral_public.end());
        circ->link->send_cell(Cell::make(circ->wire_id, CellCommand::kCreate,
                                         std::move(create))
                                  .encode());
      },
      [this, circ](const std::string& err) {
        fail_circuit(circ, "entry connect failed: " + err);
      });
}

bool OnionProxy::install_hop(const CircuitPtr& circ,
                             const dir::RelayDescriptor& desc,
                             const crypto::X25519Key& relay_public,
                             const crypto::Digest& auth) {
  auto keys =
      circ->pending_handshake->finish(desc.onion_key, relay_public, auth);
  circ->pending_handshake.reset();
  if (!keys.has_value()) return false;
  Hop hop;
  hop.desc = desc;
  hop.crypto = std::make_unique<HopCrypto>(*keys);
  circ->hops.push_back(std::move(hop));
  return true;
}

void OnionProxy::continue_build(const CircuitPtr& circ) {
  if (circ->hops.size() == circ->planned.size()) {
    circ->state = CircuitState::kBuilt;
    emit("CIRC " + std::to_string(circ->handle) + " BUILT " +
         path_str(circ->planned, circ->planned.size()));
    if (circ->on_built) {
      auto fn = std::move(circ->on_built);
      circ->on_built = {};
      fn(circ->handle);
    }
    return;
  }
  emit("CIRC " + std::to_string(circ->handle) + " EXTENDED " +
       path_str(circ->planned, circ->hops.size()));
  // EXTEND to the next hop, addressed to the current last hop.
  const dir::RelayDescriptor& next = circ->planned[circ->hops.size()];
  circ->pending_handshake = crypto::ClientHandshake::start(rng_);
  cells::ExtendRequest req;
  req.address = next.address;
  req.or_port = next.or_port;
  req.fingerprint = next.fingerprint.bytes();
  req.client_public = circ->pending_handshake->ephemeral_public;
  RelayPayload p;
  p.command = RelayCommand::kExtend;
  p.stream_id = 0;
  p.data = req.encode();
  send_relay(circ, circ->hops.size() - 1, p);
}

void OnionProxy::send_relay(const CircuitPtr& circ, std::size_t hop_index,
                            const RelayPayload& payload) {
  TING_CHECK(hop_index < circ->hops.size());
  Hop& target = circ->hops[hop_index];
  Bytes wire_payload =
      cells::encode_relay(payload, target.crypto->forward_digest());
  // Onion layering: one keystream XOR per hop out to the target, innermost
  // first.
  for (std::size_t i = hop_index + 1; i-- > 0;)
    circ->hops[i].crypto->apply_forward(wire_payload);
  if (circ->conn && circ->conn->is_open()) {
    Cell cell =
        Cell::make(circ->wire_id, CellCommand::kRelay, std::move(wire_payload));
    circ->conn->send(cell.encode());
    pool::recycle(std::move(cell.payload));
  }
}

void OnionProxy::on_cell(const CircuitPtr& circ, Bytes wire) {
  if (circ->state == CircuitState::kClosed ||
      circ->state == CircuitState::kFailed)
    return;
  Cell cell =
      Cell::decode(std::span<const std::uint8_t>(wire.data(), wire.size()));
  pool::recycle(std::move(wire));
  if (cell.circ_id != circ->wire_id) {
    TING_DEBUG("op: cell for unknown wire circuit " << cell.circ_id);
    return;
  }
  switch (cell.command) {
    case CellCommand::kCreated:
      handle_created(circ, cell);
      return;
    case CellCommand::kRelay:
      handle_backward_relay(circ, std::move(cell));
      return;
    case CellCommand::kDestroy:
      fail_circuit(circ, "received DESTROY");
      return;
    default:
      TING_DEBUG("op: unexpected cell " << command_name(cell.command));
  }
}

void OnionProxy::handle_created(const CircuitPtr& circ,
                                const cells::Cell& cell) {
  if (!circ->pending_handshake.has_value() || !circ->hops.empty()) {
    fail_circuit(circ, "unexpected CREATED");
    return;
  }
  crypto::X25519Key relay_public;
  crypto::Digest auth;
  std::copy_n(cell.payload.begin(), 32, relay_public.begin());
  std::copy_n(cell.payload.begin() + 32, 32, auth.begin());
  if (!install_hop(circ, circ->planned.front(), relay_public, auth)) {
    fail_circuit(circ, "entry handshake authentication failed");
    return;
  }
  continue_build(circ);
}

void OnionProxy::handle_backward_relay(const CircuitPtr& circ,
                                       cells::Cell cell) {
  // Strip onion layers from the entry inward until some hop recognizes the
  // payload; hops beyond the originator must not consume keystream.
  for (std::size_t i = 0; i < circ->hops.size(); ++i) {
    circ->hops[i].crypto->apply_backward(cell.payload);
    auto recognized = cells::try_parse_relay(
        std::span<const std::uint8_t>(cell.payload.data(), cell.payload.size()),
        circ->hops[i].crypto->backward_digest());
    if (recognized.has_value()) {
      pool::recycle(std::move(cell.payload));
      handle_recognized(circ, i, std::move(*recognized));
      return;
    }
  }
  fail_circuit(circ, "unrecognized backward relay cell");
}

void OnionProxy::handle_recognized(const CircuitPtr& circ,
                                   std::size_t hop_index,
                                   RelayPayload payload) {
  switch (payload.command) {
    case RelayCommand::kExtended: {
      if (!circ->pending_handshake.has_value() ||
          hop_index + 1 != circ->hops.size() ||
          circ->hops.size() >= circ->planned.size()) {
        fail_circuit(circ, "unexpected EXTENDED");
        return;
      }
      const auto reply = cells::ExtendedReply::decode(std::span<const std::uint8_t>(
          payload.data.data(), payload.data.size()));
      crypto::X25519Key relay_public;
      crypto::Digest auth;
      std::copy(reply.relay_public.begin(), reply.relay_public.end(),
                relay_public.begin());
      std::copy(reply.auth.begin(), reply.auth.end(), auth.begin());
      if (!install_hop(circ, circ->planned[circ->hops.size()], relay_public,
                       auth)) {
        fail_circuit(circ, "extend handshake authentication failed");
        return;
      }
      continue_build(circ);
      return;
    }
    case RelayCommand::kConnected: {
      auto it = circ->streams.find(payload.stream_id);
      if (it == circ->streams.end()) return;
      const StreamPtr& stream = it->second;
      stream->state_ = StreamState::kConnected;
      emit("STREAM " + std::to_string(stream->id_) + " SUCCEEDED " +
           std::to_string(circ->handle) + " " + stream->target_.str());
      if (stream->on_connected_) {
        auto fn = std::move(stream->on_connected_);
        stream->on_connected_ = {};
        fn();
      }
      return;
    }
    case RelayCommand::kData: {
      auto it = circ->streams.find(payload.stream_id);
      if (it == circ->streams.end()) return;
      const StreamPtr stream = it->second;
      // Stream-level flow control: acknowledge every 50th DATA cell so the
      // exit's package window refills (Tor's SENDME scheme).
      if (++stream->unacked_data_cells_ >= 50 &&
          circ->state == CircuitState::kBuilt) {
        stream->unacked_data_cells_ = 0;
        RelayPayload sendme;
        sendme.command = RelayCommand::kSendme;
        sendme.stream_id = stream->id_;
        send_relay(circ, circ->hops.size() - 1, sendme);
      }
      if (stream->on_message_) {
        // Copy before invoking: the handler may replace itself.
        auto fn = stream->on_message_;
        fn(std::move(payload.data));
      }
      return;
    }
    case RelayCommand::kEnd: {
      auto it = circ->streams.find(payload.stream_id);
      if (it == circ->streams.end()) return;
      StreamPtr stream = it->second;
      circ->streams.erase(it);
      stream->state_ = StreamState::kClosed;
      emit("STREAM " + std::to_string(stream->id_) + " CLOSED " +
           std::to_string(circ->handle));
      if (stream->on_fail_) {
        auto fn = std::move(stream->on_fail_);
        stream->on_fail_ = {};
        fn("stream ended by exit");
      }
      if (stream->on_close_) {
        auto fn = std::move(stream->on_close_);
        stream->on_close_ = {};
        fn();
      }
      return;
    }
    case RelayCommand::kDrop:
    case RelayCommand::kSendme:
      return;
    default:
      TING_DEBUG("op: unexpected relay command "
                 << relay_command_name(payload.command));
  }
}

void OnionProxy::fail_circuit(const CircuitPtr& circ,
                              const std::string& reason) {
  if (circ->state == CircuitState::kFailed ||
      circ->state == CircuitState::kClosed)
    return;
  const bool was_building = circ->state == CircuitState::kBuilding;
  circ->state = CircuitState::kFailed;
  emit("CIRC " + std::to_string(circ->handle) + " FAILED REASON=" + reason);
  // Detach before notifying: handlers may call Stream::close(), which
  // erases from circ->streams.
  auto streams = std::move(circ->streams);
  circ->streams.clear();
  for (auto& [id, stream] : streams) {
    stream->state_ = StreamState::kClosed;
    if (stream->on_fail_) stream->on_fail_("circuit failed: " + reason);
    if (stream->on_close_) stream->on_close_();
  }
  if (circ->conn) circ->conn->close();
  if (was_building && circ->on_fail) {
    auto fn = std::move(circ->on_fail);
    circ->on_fail = {};
    fn(reason);
  }
}

void OnionProxy::close_circuit(CircuitHandle handle) {
  auto it = circuits_.find(handle);
  if (it == circuits_.end()) return;
  CircuitPtr circ = it->second;
  if (circ->state == CircuitState::kBuilt ||
      circ->state == CircuitState::kBuilding) {
    // Tell the entry relay to tear down the whole circuit.
    if (circ->conn && circ->conn->is_open()) {
      circ->conn->send(
          Cell::make(circ->wire_id, CellCommand::kDestroy,
                     {static_cast<std::uint8_t>(
                         cells::DestroyReason::kRequested)})
              .encode());
      circ->conn->close();
    }
  }
  circ->state = CircuitState::kClosed;
  auto streams = std::move(circ->streams);
  circ->streams.clear();
  for (auto& [id, stream] : streams) {
    stream->state_ = StreamState::kClosed;
    if (stream->on_close_) stream->on_close_();
  }
  emit("CIRC " + std::to_string(handle) + " CLOSED");
}

void OnionProxy::new_identity() {
  std::vector<CircuitHandle> open;
  for (const auto& [h, circ] : circuits_)
    if (circ->state == CircuitState::kBuilt ||
        circ->state == CircuitState::kBuilding)
      open.push_back(h);
  for (const CircuitHandle h : open) close_circuit(h);
}

CircuitState OnionProxy::circuit_state(CircuitHandle handle) const {
  auto it = circuits_.find(handle);
  TING_CHECK_MSG(it != circuits_.end(), "unknown circuit " << handle);
  return it->second->state;
}

std::vector<dir::Fingerprint> OnionProxy::circuit_path(
    CircuitHandle handle) const {
  auto it = circuits_.find(handle);
  TING_CHECK_MSG(it != circuits_.end(), "unknown circuit " << handle);
  std::vector<dir::Fingerprint> out;
  for (const auto& d : it->second->planned) out.push_back(d.fingerprint);
  return out;
}

std::vector<CircuitHandle> OnionProxy::circuit_handles() const {
  std::vector<CircuitHandle> out;
  for (const auto& [h, c] : circuits_) out.push_back(h);
  return out;
}

const std::vector<dir::Fingerprint>& OnionProxy::guard_set() {
  // Drop guards that have left the consensus or lost the Guard flag.
  std::erase_if(guards_, [this](const dir::Fingerprint& fp) {
    const dir::RelayDescriptor* d = consensus_.find(fp);
    return d == nullptr || !d->has_flag(dir::kFlagGuard);
  });
  // Refill, bandwidth-weighted among Guard relays.
  for (int attempt = 0; guards_.size() < kGuardSetSize && attempt < 200;
       ++attempt) {
    const dir::RelayDescriptor* g =
        consensus_.sample_weighted(rng_, dir::kFlagRunning | dir::kFlagGuard);
    if (g == nullptr) break;
    bool duplicate = false;
    for (const auto& fp : guards_) duplicate |= (fp == g->fingerprint);
    if (!duplicate) guards_.push_back(g->fingerprint);
  }
  return guards_;
}

std::optional<std::vector<dir::Fingerprint>> OnionProxy::pick_default_path(
    const Endpoint& target, std::size_t len) {
  TING_CHECK(len >= 2);
  const std::vector<dir::Fingerprint> guards = guard_set();
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<const dir::RelayDescriptor*> picked;
    std::set<dir::Fingerprint> used_fp;
    std::set<std::uint32_t> used_slash16;
    auto admit = [&](const dir::RelayDescriptor* r) {
      picked.push_back(r);
      used_fp.insert(r->fingerprint);
      used_slash16.insert(r->address.slash16());
    };
    auto try_pick = [&](std::uint32_t required_flags, bool need_exit) {
      for (int inner = 0; inner < 50; ++inner) {
        const dir::RelayDescriptor* r =
            consensus_.sample_weighted(rng_, required_flags);
        if (r == nullptr) return false;
        if (used_fp.contains(r->fingerprint)) continue;
        if (used_slash16.contains(r->address.slash16())) continue;
        if (need_exit && !r->exit_policy.allows(target.ip, target.port))
          continue;
        admit(r);
        return true;
      }
      return false;
    };
    // Exit first (most constrained), then the entry from the guard set,
    // then middles.
    if (!try_pick(dir::kFlagRunning, /*need_exit=*/true)) continue;
    {
      bool got_guard = false;
      for (int inner = 0; inner < 20 && !got_guard && !guards.empty();
           ++inner) {
        const dir::Fingerprint& fp =
            guards[rng_.next_below(guards.size())];
        const dir::RelayDescriptor* g = consensus_.find(fp);
        if (g == nullptr || used_fp.contains(fp) ||
            used_slash16.contains(g->address.slash16()))
          continue;
        admit(g);
        got_guard = true;
      }
      if (!got_guard) continue;
    }
    bool ok = true;
    for (std::size_t i = 2; i < len && ok; ++i)
      ok = try_pick(dir::kFlagRunning, false);
    if (!ok) continue;
    // Order: entry (guard), middles, exit.
    std::vector<dir::Fingerprint> path;
    path.push_back(picked[1]->fingerprint);
    for (std::size_t i = 2; i < picked.size(); ++i)
      path.push_back(picked[i]->fingerprint);
    path.push_back(picked[0]->fingerprint);
    return path;
  }
  return std::nullopt;
}

// ---- streams ----------------------------------------------------------------

void OnionProxy::Stream::send(Bytes data) {
  if (op_ == nullptr || state_ != StreamState::kConnected) return;
  auto it = op_->circuits_.find(circuit_);
  if (it == op_->circuits_.end()) return;
  const CircuitPtr& circ = it->second;
  if (circ->state != CircuitState::kBuilt) return;
  std::size_t off = 0;
  do {
    const std::size_t take = std::min(data.size() - off, cells::kRelayDataMax);
    RelayPayload p;
    p.command = RelayCommand::kData;
    p.stream_id = id_;
    p.data.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                  data.begin() + static_cast<std::ptrdiff_t>(off + take));
    op_->send_relay(circ, circ->hops.size() - 1, p);
    off += take;
  } while (off < data.size());
}

void OnionProxy::Stream::close() {
  if (op_ == nullptr || state_ == StreamState::kClosed) return;
  auto it = op_->circuits_.find(circuit_);
  if (it != op_->circuits_.end()) {
    const CircuitPtr& circ = it->second;
    if (circ->state == CircuitState::kBuilt &&
        state_ == StreamState::kConnected) {
      RelayPayload p;
      p.command = RelayCommand::kEnd;
      p.stream_id = id_;
      p.data = {0};
      op_->send_relay(circ, circ->hops.size() - 1, p);
    }
    circ->streams.erase(id_);
  }
  state_ = StreamState::kClosed;
  if (on_close_) {
    auto fn = std::move(on_close_);
    on_close_ = {};
    fn();
  }
}

OnionProxy::StreamPtr OnionProxy::open_stream(
    CircuitHandle circuit, const Endpoint& target,
    std::function<void()> on_connected,
    std::function<void(std::string)> on_fail) {
  auto stream = std::make_shared<Stream>();
  stream->op_ = this;
  stream->id_ = next_stream_id_++;
  stream->target_ = target;
  stream->on_connected_ = std::move(on_connected);
  stream->on_fail_ = std::move(on_fail);
  streams_[stream->id_] = stream;

  auto it = circuits_.find(circuit);
  if (it == circuits_.end() || it->second->state != CircuitState::kBuilt) {
    stream->state_ = StreamState::kClosed;
    if (stream->on_fail_) stream->on_fail_("circuit not built");
    return stream;
  }
  begin_stream_on_circuit(stream, it->second);
  return stream;
}

void OnionProxy::begin_stream_on_circuit(const StreamPtr& stream,
                                         const CircuitPtr& circ) {
  stream->circuit_ = circ->handle;
  stream->state_ = StreamState::kAttaching;
  circ->streams[stream->id_] = stream;
  RelayPayload p;
  p.command = RelayCommand::kBegin;
  p.stream_id = stream->id_;
  p.data = cells::encode_begin(stream->target_);
  send_relay(circ, circ->hops.size() - 1, p);
}

bool OnionProxy::attach_stream(std::uint16_t stream_id,
                               CircuitHandle circuit) {
  auto sit = streams_.find(stream_id);
  if (sit == streams_.end() || sit->second->state_ != StreamState::kNew)
    return false;
  auto cit = circuits_.find(circuit);
  if (cit == circuits_.end() || cit->second->state != CircuitState::kBuilt)
    return false;
  begin_stream_on_circuit(sit->second, cit->second);
  return true;
}

std::vector<OnionProxy::StreamPtr> OnionProxy::unattached_streams() const {
  std::vector<StreamPtr> out;
  for (const auto& [id, s] : streams_)
    if (s->state_ == StreamState::kNew) out.push_back(s);
  return out;
}

OnionProxy::StreamPtr OnionProxy::find_stream(std::uint16_t stream_id) const {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return nullptr;
  return it->second;
}

// ---- SOCKS-style application port -------------------------------------------

void OnionProxy::handle_socks_connection(simnet::ConnPtr conn) {
  // First message: "CONNECT <ip>:<port>". (A documented simplification of
  // the SOCKS handshake; the control-plane flow around it is faithful.)
  conn->set_on_message([this, conn](Bytes msg) {
    const std::string line(msg.begin(), msg.end());
    if (!starts_with(line, "CONNECT ")) {
      conn->send(Bytes{'E', 'R', 'R'});
      conn->close();
      return;
    }
    const std::size_t colon = line.rfind(':');
    const auto ip = IpAddr::parse(line.substr(8, colon - 8));
    if (colon == std::string::npos || !ip.has_value()) {
      conn->send(Bytes{'E', 'R', 'R'});
      conn->close();
      return;
    }
    const Endpoint target{*ip, static_cast<std::uint16_t>(
                                   std::stoi(line.substr(colon + 1)))};

    auto stream = std::make_shared<Stream>();
    stream->op_ = this;
    stream->id_ = next_stream_id_++;
    stream->target_ = target;
    stream->socks_conn_ = conn;
    streams_[stream->id_] = stream;

    // Wire the app connection <-> stream plumbing.
    stream->on_connected_ = [this, stream]() {
      if (stream->socks_conn_ && stream->socks_conn_->is_open())
        stream->socks_conn_->send(Bytes{'O', 'K'});
    };
    stream->on_fail_ = [stream](const std::string&) {
      if (stream->socks_conn_ && stream->socks_conn_->is_open()) {
        stream->socks_conn_->send(Bytes{'E', 'R', 'R'});
        stream->socks_conn_->close();
      }
    };
    stream->set_on_message([stream](Bytes data) {
      if (stream->socks_conn_ && stream->socks_conn_->is_open())
        stream->socks_conn_->send(std::move(data));
    });
    stream->set_on_close([stream]() {
      if (stream->socks_conn_ && stream->socks_conn_->is_open())
        stream->socks_conn_->close();
    });
    conn->set_on_message([stream](Bytes data) { stream->send(std::move(data)); });
    conn->set_on_close([stream]() { stream->close(); });

    if (config_.leave_streams_unattached) {
      emit("STREAM " + std::to_string(stream->id_) + " NEW 0 " + target.str());
      return;
    }
    // Auto-attach: build a fresh default circuit for this stream.
    const auto path = pick_default_path(target, config_.default_path_len);
    if (!path.has_value()) {
      stream->on_fail_("no viable default path");
      return;
    }
    build_circuit(
        *path,
        [this, stream](CircuitHandle h) {
          auto it = circuits_.find(h);
          if (it != circuits_.end() && stream->state_ == StreamState::kNew)
            begin_stream_on_circuit(stream, it->second);
        },
        [stream](const std::string& err) {
          if (stream->on_fail_) stream->on_fail_(err);
        });
  });
}

}  // namespace ting::tor
