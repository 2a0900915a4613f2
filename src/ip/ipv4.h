// IPv4 header representation and wire codec (RFC 791, no options, no
// fragmentation — the simulated links carry whole datagrams). Forwarding
// never builds an Ipv4Packet: it reads the header in place (Ipv4Header) and
// rewrites only the TTL and checksum (decrement_ttl).
#pragma once

#include <cstdint>

#include "netbase/bytes.h"
#include "netbase/ip.h"
#include "netbase/result.h"

namespace peering::ip {

/// IP protocol numbers used in the simulation.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

/// The fixed IPv4 header read in place from wire bytes.
struct Ipv4Header {
  /// DSCP and ECN, as on the wire.
  std::uint8_t tos = 0;
  std::uint16_t total_length = 0;
  std::uint16_t identification = 0;
  std::uint8_t ttl = 0;
  std::uint8_t protocol = 0;
  Ipv4Address src;
  Ipv4Address dst;
};

/// Parses the header at the front of `data` with the checks every IPv4
/// input shares: at least 20 bytes, a valid header checksum, version 4,
/// IHL 5 (no options), and a total length of 20 to data.size(). Bytes past
/// the total length (Ethernet padding) are not part of the datagram.
Result<Ipv4Header> parse_ipv4_header(std::span<const std::uint8_t> data);

/// Decrements the TTL of the header at the front of `datagram` in place and
/// updates its checksum incrementally (RFC 1624, eqn. 3). Nothing else in
/// the datagram changes: DSCP, ECN, flags and identification stay as sent.
/// Precondition: a valid header with TTL >= 1.
void decrement_ttl(std::span<std::uint8_t> datagram);

struct Ipv4Packet {
  std::uint8_t dscp = 0;
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  Ipv4Address src;
  Ipv4Address dst;
  Bytes payload;

  /// Serializes with a freshly computed header checksum (DF set, ECN 0),
  /// after `headroom` zero bytes the caller fills in (an Ethernet header).
  Bytes encode(std::size_t headroom = 0) const;

  /// Parses and validates the header checksum.
  static Result<Ipv4Packet> decode(std::span<const std::uint8_t> data);

  std::size_t total_length() const { return 20 + payload.size(); }
};

/// RFC 1071 ones-complement checksum over `data`.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

}  // namespace peering::ip
