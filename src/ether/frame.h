// Ethernet II frame representation and wire codec. vBGP's per-packet
// delegation is encoded entirely in these headers: the destination MAC of a
// frame from an experiment selects the egress neighbor, and the source MAC
// of a frame delivered to an experiment identifies the ingress neighbor.
#pragma once

#include <cstdint>

#include "netbase/bytes.h"
#include "netbase/mac.h"
#include "netbase/result.h"

namespace peering::ether {

/// EtherType values used by the simulation.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kVlan = 0x8100,
};

/// Length of an untagged Ethernet header (no FCS: links are reliable).
constexpr std::size_t kHeaderLength = 14;

/// An Ethernet header parsed in place from wire bytes: what every frame
/// input reads before deciding whether it needs the payload at all.
struct FrameHeader {
  MacAddress dst;
  MacAddress src;
  /// The inner EtherType behind an 802.1Q tag, if there is one.
  std::uint16_t ethertype = 0;
  bool has_vlan = false;
  std::uint16_t vlan_id = 0;
  /// Bytes before the payload: 14, or 18 with a tag.
  std::size_t header_length = kHeaderLength;
};

/// Parses the Ethernet header of `wire`, including an optional single
/// 802.1Q tag. The payload is `wire` from header_length on.
Result<FrameHeader> parse_header(std::span<const std::uint8_t> wire);

/// Reshapes a received frame in place into an untagged one: a
/// kHeaderLength header (the EtherType kept, the 802.1Q tag dropped) and the first
/// `payload_length` payload bytes (Ethernet padding trimmed). The MAC
/// addresses are left for write_header.
void untag_and_trim(Bytes& wire, const FrameHeader& header,
                    std::size_t payload_length);

/// Writes the untagged header at the front of `wire`, whose first
/// kHeaderLength bytes the caller has reserved (e.g. as
/// Ipv4Packet::encode's headroom).
void write_header(Bytes& wire, MacAddress dst, MacAddress src, EtherType type);

struct EthernetFrame {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ethertype = 0;
  /// Present iff the frame carries an 802.1Q tag (used by the backbone's
  /// provisioned VLANs, §4.3.1). Only the 12-bit VLAN ID is modeled.
  bool has_vlan = false;
  std::uint16_t vlan_id = 0;
  Bytes payload;

  /// Serializes to wire bytes (no FCS; links are reliable).
  Bytes encode() const;

  /// Parses wire bytes, including an optional single 802.1Q tag.
  static Result<EthernetFrame> decode(std::span<const std::uint8_t> data);
};

/// Convenience constructor for an untagged frame.
EthernetFrame make_frame(MacAddress dst, MacAddress src, EtherType type,
                         Bytes payload);

}  // namespace peering::ether
