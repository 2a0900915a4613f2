#include "ip/ipv4.h"

namespace peering::ip {

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

Result<Ipv4Header> parse_ipv4_header(std::span<const std::uint8_t> data) {
  if (data.size() < 20) return Error("ipv4: truncated header");
  if (internet_checksum(data.subspan(0, 20)) != 0)
    return Error("ipv4: bad header checksum");
  if ((data[0] >> 4) != 4) return Error("ipv4: not version 4");
  if ((data[0] & 0xf) != 5) return Error("ipv4: options unsupported");
  auto u16 = [&data](std::size_t at) {
    return static_cast<std::uint16_t>((data[at] << 8) | data[at + 1]);
  };
  auto u32 = [&u16](std::size_t at) {
    return (static_cast<std::uint32_t>(u16(at)) << 16) | u16(at + 2);
  };
  Ipv4Header header;
  header.tos = data[1];
  header.total_length = u16(2);
  if (header.total_length < 20 || header.total_length > data.size())
    return Error("ipv4: bad total length");
  header.identification = u16(4);
  header.ttl = data[8];
  header.protocol = data[9];
  header.src = Ipv4Address(u32(12));
  header.dst = Ipv4Address(u32(16));
  return header;
}

void decrement_ttl(std::span<std::uint8_t> datagram) {
  // The TTL shares a 16-bit word with the protocol: m = ttl << 8 | proto.
  // HC' = ~(~HC + ~m + m'), in ones-complement arithmetic.
  const std::uint16_t old_word =
      static_cast<std::uint16_t>((datagram[8] << 8) | datagram[9]);
  const std::uint16_t new_word = static_cast<std::uint16_t>(old_word - 0x100);
  const std::uint16_t old_checksum =
      static_cast<std::uint16_t>((datagram[10] << 8) | datagram[11]);
  std::uint32_t sum = static_cast<std::uint16_t>(~old_checksum) +
                      static_cast<std::uint32_t>(
                          static_cast<std::uint16_t>(~old_word)) +
                      new_word;
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  const auto checksum = static_cast<std::uint16_t>(~sum);
  datagram[8] = static_cast<std::uint8_t>(datagram[8] - 1);
  datagram[10] = static_cast<std::uint8_t>(checksum >> 8);
  datagram[11] = static_cast<std::uint8_t>(checksum);
}

Bytes Ipv4Packet::encode(std::size_t headroom) const {
  Bytes buf;
  buf.reserve(headroom + total_length());
  buf.resize(headroom);
  ByteWriter w(std::move(buf));
  w.u8((4u << 4) | 5u);  // version 4, IHL 5 (no options)
  w.u8(dscp << 2);
  w.u16(static_cast<std::uint16_t>(total_length()));
  w.u16(identification);
  w.u16(0x4000);  // flags: DF set, no fragmentation modeled
  w.u8(ttl);
  w.u8(protocol);
  std::size_t checksum_pos = w.reserve_u16();
  w.u32(src.value());
  w.u32(dst.value());
  w.raw(payload);
  Bytes out = w.take();
  std::uint16_t checksum = internet_checksum(
      std::span<const std::uint8_t>(out).subspan(headroom, 20));
  out[checksum_pos] = static_cast<std::uint8_t>(checksum >> 8);
  out[checksum_pos + 1] = static_cast<std::uint8_t>(checksum);
  return out;
}

Result<Ipv4Packet> Ipv4Packet::decode(std::span<const std::uint8_t> data) {
  auto header = parse_ipv4_header(data);
  if (!header) return header.error();
  Ipv4Packet pkt;
  pkt.dscp = header->tos >> 2;
  pkt.identification = header->identification;
  pkt.ttl = header->ttl;
  pkt.protocol = header->protocol;
  pkt.src = header->src;
  pkt.dst = header->dst;
  pkt.payload.assign(data.begin() + 20, data.begin() + header->total_length);
  return pkt;
}

}  // namespace peering::ip
