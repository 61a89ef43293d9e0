// Seeded input generators. The benchmark makes its own inputs so that they
// do not change when the program's trace module does: flow records drawn
// from a two-level Zipf over source networks and hosts, a Zipf service mix,
// and heavy-tailed (Pareto) byte counts. Everything is a pure function of
// (seed, site, draw order).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "flow/flowkey.hpp"

namespace perfbench {

namespace flow = megads::flow;

/// Inverse-CDF Zipf sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double skew) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  template <typename Rng>
  std::size_t operator()(Rng& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Shape of the generated traffic (recorded in README.md).
constexpr std::size_t kNetworks = 64;  ///< /16 source networks, spread over four /8s
constexpr std::size_t kHosts = 256;    ///< hosts per network
constexpr double kNetworkSkew = 1.2;
constexpr double kHostSkew = 1.0;
constexpr std::size_t kServices = 32;  ///< (dst address, dst port, proto) triples
constexpr double kServiceSkew = 1.1;
constexpr std::uint32_t kSrcPorts = 1024;  ///< ephemeral source ports drawn uniformly
constexpr double kPacketAlpha = 1.3;       ///< Pareto shape of packets per flow
constexpr std::uint64_t kPacketBytes = 700;

/// Flow records of one site. Sites share the service mix; each site rotates
/// the popularity ranking of the source networks, so sites overlap without
/// being identical.
class FlowSource {
 public:
  FlowSource(std::uint64_t seed, std::uint32_t site)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + site * 0xBF58476D1CE4E5B9ULL + 1),
        network_zipf_(kNetworks, kNetworkSkew),
        host_zipf_(kHosts, kHostSkew),
        service_zipf_(kServices, kServiceSkew) {
    // Network and service identities depend on the seed only; the site
    // rotates the ranking.
    std::mt19937_64 world(seed ^ 0xA5A5A5A5DEADBEEFULL);
    std::vector<std::uint32_t> second(256);
    for (std::uint32_t i = 0; i < 256; ++i) second[i] = i;
    std::shuffle(second.begin(), second.end(), world);
    for (std::size_t i = 0; i < kNetworks; ++i) {
      const std::uint32_t first = 10 + static_cast<std::uint32_t>(i % 4);
      networks_.push_back((first << 24) | (second[i % 256] << 16));
    }
    std::rotate(networks_.begin(),
                networks_.begin() +
                    static_cast<long>((site * 5) % kNetworks),
                networks_.end());
    static constexpr std::uint16_t kPorts[] = {443, 80, 53, 22, 8080, 123, 25, 993};
    for (std::size_t i = 0; i < kServices; ++i) {
      const auto address = static_cast<std::uint32_t>(
          (192u << 24) | (168u << 16) | (world() & 0xFFFF));
      const std::uint16_t port = kPorts[world() % 8];
      const std::uint8_t proto = port == 53 || port == 123 ? 17 : 6;
      services_.push_back({address, port, proto});
    }
  }

  /// The next record, stamped `timestamp`.
  flow::FlowRecord next(std::int64_t timestamp) {
    const std::uint32_t net = networks_[network_zipf_(rng_)];
    const auto host = static_cast<std::uint32_t>(host_zipf_(rng_));
    const std::uint32_t src = net | ((host * 2654435761u) & 0xFFFFu);
    const Service& svc = services_[service_zipf_(rng_)];
    const auto src_port = static_cast<std::uint16_t>(
        32768 + std::uniform_int_distribution<std::uint32_t>(
                    0, kSrcPorts - 1)(rng_));
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    const double packets =
        std::min(1e6, std::floor(std::pow(1.0 - u, -1.0 / kPacketAlpha)));
    flow::FlowRecord record;
    record.key = flow::FlowKey::from_tuple(svc.proto, flow::IPv4(src), src_port,
                                           flow::IPv4(svc.address), svc.port);
    record.packets = static_cast<std::uint64_t>(packets);
    record.bytes = record.packets * kPacketBytes;
    record.timestamp = timestamp;
    return record;
  }

  /// The rank-th most popular source network of this site, as a /16.
  [[nodiscard]] flow::Prefix network(std::size_t rank) const {
    return flow::Prefix(flow::IPv4(networks_[rank % networks_.size()]), 16);
  }

 private:
  struct Service {
    std::uint32_t address;
    std::uint16_t port;
    std::uint8_t proto;
  };
  std::mt19937_64 rng_;
  Zipf network_zipf_;
  Zipf host_zipf_;
  Zipf service_zipf_;
  std::vector<std::uint32_t> networks_;
  std::vector<Service> services_;
};

}  // namespace perfbench
