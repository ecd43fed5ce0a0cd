// Per-flow NAT for location privacy (paper section 4.1).
//
// LocIPs change when a UE moves, so exposing them to Internet servers would
// leak UE location.  SoftCell therefore NATs at the carrier boundary and --
// unlike a conventional NAT -- picks an *independent, random* public
// (address, port) pair per flow, so public endpoints cannot be correlated
// with UE location or with the decision to change location.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "mem/slab.hpp"
#include "packet/packet.hpp"
#include "packet/prefix.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace softcell {

struct PublicEndpoint {
  Ipv4Addr ip = 0;
  std::uint16_t port = 0;

  friend constexpr bool operator==(const PublicEndpoint&,
                                   const PublicEndpoint&) = default;
};

// Bidirectional per-flow translation table.
//
// Outbound: (LocIP flow key) -> public endpoint (random, never reused while
// the flow is live).  Inbound: public endpoint -> internal flow key.
//
// Storage (DESIGN.md section 15): one slab record per live flow holds both
// the internal key and the public endpoint; the forward and reverse indexes
// map into it by handle, so the 16-byte FlowKey is resident once instead of
// twice (a twin-map layout would store it as a key on one side and a value
// on the other).  Translations depend only on the seed and the call
// sequence.
class FlowNat {
 public:
  // `pool` is the carrier's public prefix for NATed traffic.  `seed`
  // randomizes endpoint selection (deliberately not derived from any UE or
  // location field).
  FlowNat(Prefix pool, std::uint64_t seed)
      : pool_(pool), rng_(seed) {
    if (pool.len() > 30)
      throw std::invalid_argument("FlowNat: pool too small");
  }

  // Returns the (possibly fresh) public endpoint for an outbound flow.
  PublicEndpoint translate_outbound(const FlowKey& internal);

  // Maps an inbound destination endpoint back to the internal flow, or
  // nullopt if no such flow exists (unsolicited traffic -> drop).
  [[nodiscard]] std::optional<FlowKey> translate_inbound(
      PublicEndpoint pub) const;

  // Releases the mapping for a finished flow.
  void release(const FlowKey& internal);

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

  // Resident footprint of the translation state (million-UE bench).
  [[nodiscard]] std::size_t bytes_resident() const;

 private:
  struct EndpointHash {
    size_t operator()(const PublicEndpoint& e) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(e.ip) << 16) | e.port);
    }
  };
  // Both directions resolve to the same record.
  struct NatEntry {
    FlowKey internal;
    PublicEndpoint pub;
  };

  Prefix pool_;
  Rng rng_;
  mem::Slab<NatEntry> flows_;
  FlatMap<FlowKey, mem::Handle> out_idx_;
  FlatMap<PublicEndpoint, mem::Handle, EndpointHash> in_idx_;
};

}  // namespace softcell
