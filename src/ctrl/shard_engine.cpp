#include "ctrl/shard_engine.hpp"

#include <stdexcept>

namespace softcell {

ShardEngine::ShardEngine(std::shared_ptr<const ServicePolicy> policy,
                         std::size_t store_replicas)
    : policy_(std::move(policy)), store_(store_replicas) {
  if (policy_ == nullptr)
    throw std::invalid_argument("ShardEngine: null policy snapshot");
}

void ShardEngine::provision_subscriber(UeId ue,
                                       const SubscriberProfile& profile) {
  sc::WriteLock lock(mu_);
  store_.put_profile(ue, profile);
}

void ShardEngine::attach_ue(UeId ue, std::uint32_t bs, LocalUeId local) {
  sc::WriteLock lock(mu_);
  if (!store_.profile(ue))
    throw std::invalid_argument("attach_ue: unknown subscriber");
  store_.set_location(ue, UeLocation{bs, local});
}

void ShardEngine::detach_ue(UeId ue) {
  sc::WriteLock lock(mu_);
  store_.clear_location(ue);
}

void ShardEngine::update_location(UeId ue, std::uint32_t bs,
                                  LocalUeId local) {
  sc::WriteLock lock(mu_);
  store_.set_location(ue, UeLocation{bs, local});
}

std::optional<UeLocation> ShardEngine::ue_location(UeId ue) const {
  sc::ReadLock lock(mu_);
  return store_.location(ue);
}

std::vector<PacketClassifier> ShardEngine::fetch_classifiers(
    UeId ue, std::uint32_t bs, const Controller& core) const {
  sc::ReadLock lock(mu_);
  const std::optional<SubscriberProfile> profile = store_.profile(ue);
  if (!profile)
    throw std::invalid_argument("fetch_classifiers: unknown subscriber");

  // The tag comes from the core's installed-path map instead of a store
  // path map: every install, migration and recompaction writes it there
  // before completing, so the two are definitionally equal.
  return compile_classifiers(*policy_, *profile, [&](ClauseId clause) {
    return core.path_tag(clause, bs);
  });
}

void ShardEngine::set_policy(std::shared_ptr<const ServicePolicy> policy) {
  if (policy == nullptr)
    throw std::invalid_argument("set_policy: null policy snapshot");
  sc::WriteLock lock(mu_);
  policy_ = std::move(policy);
}

void ShardEngine::fail_primary_replica() {
  sc::WriteLock lock(mu_);
  store_.fail_primary();
}

void ShardEngine::rebuild_locations(
    const std::function<void(const std::function<void(UeId, UeLocation)>&)>&
        query) {
  sc::WriteLock lock(mu_);
  store_.rebuild_locations(query);
}

std::uint64_t ShardEngine::store_writes() const {
  sc::ReadLock lock(mu_);
  return store_.version();
}

std::uint64_t ShardEngine::attached_ues() const {
  sc::ReadLock lock(mu_);
  return store_.attached_ues();
}

std::uint64_t ShardEngine::store_bytes_resident() const {
  sc::ReadLock lock(mu_);
  return store_.bytes_resident();
}

std::uint64_t ShardEngine::store_primary_bytes_resident() const {
  sc::ReadLock lock(mu_);
  return store_.primary_bytes_resident();
}

}  // namespace softcell
