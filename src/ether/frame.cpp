#include "ether/frame.h"

#include <algorithm>
#include <array>

namespace peering::ether {

namespace {
MacAddress read_mac(const std::uint8_t* p) {
  std::array<std::uint8_t, 6> mac{};
  std::copy(p, p + 6, mac.begin());
  return MacAddress(mac);
}
std::uint16_t read_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
}  // namespace

Bytes EthernetFrame::encode() const {
  ByteWriter w(18 + payload.size());
  w.raw(std::span<const std::uint8_t>(dst.bytes()));
  w.raw(std::span<const std::uint8_t>(src.bytes()));
  if (has_vlan) {
    w.u16(static_cast<std::uint16_t>(EtherType::kVlan));
    w.u16(vlan_id & 0x0fff);
  }
  w.u16(ethertype);
  w.raw(payload);
  return w.take();
}

Result<FrameHeader> parse_header(std::span<const std::uint8_t> wire) {
  if (wire.size() < 6) return Error("ether: truncated dst");
  if (wire.size() < 12) return Error("ether: truncated src");
  if (wire.size() < 14) return Error("ether: truncated ethertype");
  FrameHeader header;
  header.dst = read_mac(wire.data());
  header.src = read_mac(wire.data() + 6);
  header.ethertype = read_u16(wire.data() + 12);
  if (header.ethertype == static_cast<std::uint16_t>(EtherType::kVlan)) {
    if (wire.size() < 16) return Error("ether: truncated vlan tag");
    if (wire.size() < 18) return Error("ether: truncated inner ethertype");
    header.has_vlan = true;
    header.vlan_id = read_u16(wire.data() + 14) & 0x0fff;
    header.ethertype = read_u16(wire.data() + 16);
    header.header_length = 18;
  }
  return header;
}

void untag_and_trim(Bytes& wire, const FrameHeader& header,
                    std::size_t payload_length) {
  wire.resize(header.header_length + payload_length);
  // The inner EtherType moves up to offset 12 with the tag gone.
  if (header.has_vlan) wire.erase(wire.begin() + 12, wire.begin() + 16);
}

void write_header(Bytes& wire, MacAddress dst, MacAddress src,
                  EtherType type) {
  std::copy(dst.bytes().begin(), dst.bytes().end(), wire.begin());
  std::copy(src.bytes().begin(), src.bytes().end(), wire.begin() + 6);
  wire[12] = static_cast<std::uint8_t>(static_cast<std::uint16_t>(type) >> 8);
  wire[13] = static_cast<std::uint8_t>(type);
}

Result<EthernetFrame> EthernetFrame::decode(
    std::span<const std::uint8_t> data) {
  auto header = parse_header(data);
  if (!header) return header.error();
  EthernetFrame frame;
  frame.dst = header->dst;
  frame.src = header->src;
  frame.ethertype = header->ethertype;
  frame.has_vlan = header->has_vlan;
  frame.vlan_id = header->vlan_id;
  frame.payload.assign(data.begin() + header->header_length, data.end());
  return frame;
}

EthernetFrame make_frame(MacAddress dst, MacAddress src, EtherType type,
                         Bytes payload) {
  EthernetFrame frame;
  frame.dst = dst;
  frame.src = src;
  frame.ethertype = static_cast<std::uint16_t>(type);
  frame.payload = std::move(payload);
  return frame;
}

}  // namespace peering::ether
