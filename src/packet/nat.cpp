#include "packet/nat.hpp"

namespace softcell {

PublicEndpoint FlowNat::translate_outbound(const FlowKey& internal) {
  if (const auto it = out_idx_.find(internal); it != out_idx_.end())
    return flows_.get(it->second)->pub;
  // Draw random endpoints until an unused one is found.  The pool has at
  // least 4 addresses x 64k ports, and carriers size pools far above the
  // concurrent flow count, so the expected number of draws is ~1.
  const std::uint32_t host_space = 1u << (32 - pool_.len());
  for (;;) {
    PublicEndpoint e{
        pool_.addr() | static_cast<Ipv4Addr>(rng_.next_below(host_space)),
        static_cast<std::uint16_t>(rng_.next_in(1024, 65535))};
    auto [it, inserted] = in_idx_.try_emplace(e);
    if (!inserted) continue;
    const mem::Handle h = flows_.emplace(NatEntry{internal, e});
    it->second = h;
    out_idx_[internal] = h;
    return e;
  }
}

std::optional<FlowKey> FlowNat::translate_inbound(PublicEndpoint pub) const {
  if (const auto it = in_idx_.find(pub); it != in_idx_.end())
    return flows_.get(it->second)->internal;
  return std::nullopt;
}

void FlowNat::release(const FlowKey& internal) {
  const auto it = out_idx_.find(internal);
  if (it == out_idx_.end()) return;
  const mem::Handle h = it->second;
  in_idx_.erase(flows_.get(h)->pub);
  out_idx_.erase(internal);
  flows_.erase(h);
}

std::size_t FlowNat::bytes_resident() const {
  return flows_.bytes_resident() +
         out_idx_.size() * (sizeof(FlowKey) + sizeof(mem::Handle)) +
         in_idx_.size() * (sizeof(PublicEndpoint) + sizeof(mem::Handle));
}

}  // namespace softcell
