#include "net/dispatch.hpp"

#include <utility>

namespace softcell::net {

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::uint64_t classifier_digest(
    std::span<const PacketClassifier> classifiers) {
  // Per-entry FNV-1a hashes summed with wrap-around: insensitive to
  // enumeration order, sensitive to every field of every entry.
  std::uint64_t sum = 0;
  for (const PacketClassifier& c : classifiers) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    h = fnv1a(h, static_cast<std::uint64_t>(c.app));
    h = fnv1a(h, c.clause.value());
    h = fnv1a(h, c.allow ? 1 : 0);
    h = fnv1a(h, c.tag ? c.tag->value() : 0xFFFFull);
    sum += h;
  }
  return sum;
}

Request to_request(const ofp::PacketInMsg& msg) {
  Request request;
  request.ue = msg.ue;
  request.bs = msg.bs;
  switch (msg.kind) {
    case ofp::PacketInMsg::Kind::kFetchClassifiers:
      request.kind = RequestKind::kFetchClassifiers;
      break;
    case ofp::PacketInMsg::Kind::kPolicyPath:
      request.kind = RequestKind::kPolicyPath;
      request.clause = msg.clause;
      break;
  }
  return request;
}

void RuntimeDispatcher::dispatch(
    const ofp::PacketInMsg& msg,
    std::function<void(ofp::PacketInReply&&)> done, bool inline_if_idle) {
  Request request = to_request(msg);
  const std::uint32_t xid = msg.xid;
  const auto kind = msg.kind;
  // `on_done` stays alive across post() so the shutdown-refusal path can
  // still answer (post takes the Request by value; a failed post leaves
  // the moved-from copy unusable).
  auto on_done = std::move(done);
  request.done = [xid, kind, on_done](Response&& response) {
    ofp::PacketInReply reply;
    reply.xid = xid;
    reply.kind = kind;
    reply.ok = response.ok;
    if (kind == ofp::PacketInMsg::Kind::kPolicyPath) {
      reply.tag = response.tag;
    } else {
      reply.classifier_count =
          static_cast<std::uint32_t>(response.classifiers.size());
      reply.digest = classifier_digest(response.classifiers);
    }
    on_done(std::move(reply));
  };
  if (inline_if_idle && runtime_.run_inline_if_idle(request)) return;
  if (!runtime_.post(std::move(request))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    ofp::PacketInReply reply;
    reply.xid = xid;
    reply.kind = kind;
    reply.ok = false;
    on_done(std::move(reply));
  }
}

std::uint64_t RuntimeDispatcher::fingerprint() {
  return brain_.canonical_fingerprint();
}

}  // namespace softcell::net
