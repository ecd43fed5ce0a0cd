// softcell::net -- the request-dispatch boundary shared by both serving
// paths.
//
// The osrm-backend split (EngineInterface behind plugins): transports
// decode packet-ins however they arrive -- a socket in softcell-serverd, a
// plain function call in the in-process reference run -- and hand the
// decoded message to one Dispatcher.  Because both paths cross the same
// boundary into the same ControlPlaneRuntime pipeline, a wire run and an
// in-process run of the same workload land on the same controller state
// (the fingerprint-parity check in tests/test_net.cpp rests on this).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "ctrl/control_plane.hpp"
#include "ofp/codec.hpp"
#include "runtime/runtime.hpp"

namespace softcell::net {

class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  // Routes one packet-in.  `done` may fire on any thread (the runtime
  // fires completions on its workers) and must stay cheap.
  virtual void dispatch(const ofp::PacketInMsg& msg,
                        std::function<void(ofp::PacketInReply&&)> done) = 0;

  // The same, but with `inline_if_idle` the dispatcher may serve the
  // request on the calling thread before returning (the serving loop
  // offers the last frame of each read burst).  The default ignores the
  // offer and forwards to the two-argument form.
  virtual void dispatch(const ofp::PacketInMsg& msg,
                        std::function<void(ofp::PacketInReply&&)> done,
                        bool /*inline_if_idle*/) {
    dispatch(msg, std::move(done));
  }

  // Interleaving-independent fingerprint of the controller state (the
  // canonical recompact-then-fingerprint; see runtime/control_brain.hpp).
  // Callers quiesce first: the server answers a stats request only after
  // the client has collected every outstanding reply.
  [[nodiscard]] virtual std::uint64_t fingerprint() = 0;

  // Blocks until every dispatched request has completed.
  virtual void drain() = 0;
};

// Order-insensitive digest of a classifier set (FNV-1a over each entry,
// summed): lets the load generator verify fetch results end to end without
// shipping the classifier list over the wire, while staying independent of
// the order the controller enumerates them in.
[[nodiscard]] std::uint64_t classifier_digest(
    std::span<const PacketClassifier> classifiers);

// The runtime Request a packet-in asks for, without a completion.
[[nodiscard]] Request to_request(const ofp::PacketInMsg& msg);

// The production Dispatcher: packet-ins become runtime Requests routed
// through the shard pipeline; replies are built from the runtime Response
// on the thread that executed it.  Offered inline, a classifier fetch
// whose owning worker is idle runs on the caller's thread
// (ControlPlaneRuntime::run_inline_if_idle); everything else is posted.
class RuntimeDispatcher final : public Dispatcher {
 public:
  RuntimeDispatcher(ControlPlaneRuntime& runtime, ControlBrain& brain)
      : runtime_(runtime), brain_(brain) {}

  void dispatch(const ofp::PacketInMsg& msg,
                std::function<void(ofp::PacketInReply&&)> done) override {
    dispatch(msg, std::move(done), false);
  }
  void dispatch(const ofp::PacketInMsg& msg,
                std::function<void(ofp::PacketInReply&&)> done,
                bool inline_if_idle) override;
  [[nodiscard]] std::uint64_t fingerprint() override;
  void drain() override { runtime_.drain(); }

 private:
  ControlPlaneRuntime& runtime_;
  ControlBrain& brain_;
};

}  // namespace softcell::net
