// Tests for the IPv4 layer: codecs, the host stack (ARP resolution, local
// delivery, forwarding, TTL/ICMP), and traceroute over a router chain.
#include <gtest/gtest.h>

#include "ip/host.h"
#include "ip/icmp.h"
#include "ip/traceroute.h"
#include "ip/udp.h"
#include "netbase/rand.h"
#include "sim/event_loop.h"

namespace peering::ip {
namespace {

MacAddress mac(std::uint32_t id) { return MacAddress::from_id(id); }

TEST(Ipv4Codec, RoundTrip) {
  Ipv4Packet pkt;
  pkt.src = Ipv4Address(10, 0, 0, 1);
  pkt.dst = Ipv4Address(10, 0, 0, 2);
  pkt.ttl = 7;
  pkt.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  pkt.payload = Bytes{1, 2, 3};
  auto decoded = Ipv4Packet::decode(pkt.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->src, pkt.src);
  EXPECT_EQ(decoded->dst, pkt.dst);
  EXPECT_EQ(decoded->ttl, 7);
  EXPECT_EQ(decoded->payload, pkt.payload);
}

TEST(Ipv4Codec, RejectsCorruptChecksum) {
  Ipv4Packet pkt;
  pkt.src = Ipv4Address(10, 0, 0, 1);
  pkt.dst = Ipv4Address(10, 0, 0, 2);
  Bytes wire = pkt.encode();
  wire[8] ^= 0xff;  // flip TTL without fixing checksum
  EXPECT_FALSE(Ipv4Packet::decode(wire).ok());
}

TEST(Ipv4Codec, ChecksumIsValidOverHeader) {
  Ipv4Packet pkt;
  pkt.src = Ipv4Address(192, 168, 1, 1);
  pkt.dst = Ipv4Address(8, 8, 8, 8);
  Bytes wire = pkt.encode();
  EXPECT_EQ(internet_checksum(std::span(wire).subspan(0, 20)), 0);
}

/// Writes the full RFC 1071 checksum of the 20-byte header at `h`.
void set_header_checksum(std::span<std::uint8_t> h) {
  h[10] = h[11] = 0;
  const std::uint16_t sum = internet_checksum(h.first(20));
  h[10] = static_cast<std::uint8_t>(sum >> 8);
  h[11] = static_cast<std::uint8_t>(sum);
}

TEST(Ipv4Header, IncrementalTtlUpdateEqualsFullRecomputation) {
  // RFC 1624 eqn. 3 against internet_checksum for every TTL from 2 to 255.
  // Every third header is forced to a checksum of 0x0000 (its other words
  // sum to 0xffff); it is then also tried in its equivalent 0xffff form.
  Rng rng(1624);
  int zero_checksums = 0;
  for (int n = 0; n < 300; ++n) {
    Bytes h(20);
    for (auto& b : h) b = static_cast<std::uint8_t>(rng.next());
    h[0] = 0x45;
    if (n % 3 == 0) {
      // Choose the identification so the other words sum to 0xffff.
      h[4] = h[5] = 0;
      h[8] = 2;  // the TTL the sweep starts from
      set_header_checksum(h);
      const std::uint16_t id = static_cast<std::uint16_t>(
          0xffff - static_cast<std::uint16_t>(~((h[10] << 8) | h[11])));
      h[4] = static_cast<std::uint8_t>(id >> 8);
      h[5] = static_cast<std::uint8_t>(id);
    }
    for (int ttl = 2; ttl <= 255; ++ttl) {
      h[8] = static_cast<std::uint8_t>(ttl);
      set_header_checksum(h);
      std::vector<Bytes> forms = {h};
      if (h[10] == 0 && h[11] == 0) {
        ++zero_checksums;
        Bytes ones = h;
        ones[10] = ones[11] = 0xff;  // -0: also a valid checksum
        ASSERT_EQ(internet_checksum(ones), 0);
        forms.push_back(ones);
      }
      for (Bytes form : forms) {
        decrement_ttl(form);
        Bytes expected = h;
        expected[8] = static_cast<std::uint8_t>(ttl - 1);
        set_header_checksum(expected);
        ASSERT_EQ(form, expected) << "header " << n << " ttl " << ttl;
      }
    }
  }
  EXPECT_GE(zero_checksums, 100);
}

TEST(Ipv4Header, ParseSharesTheDecodeChecks) {
  Ipv4Packet pkt;
  pkt.src = Ipv4Address(10, 0, 0, 1);
  pkt.dst = Ipv4Address(10, 0, 0, 2);
  pkt.identification = 0x4242;
  pkt.payload = Bytes(8, 1);
  Bytes wire = pkt.encode();
  wire.resize(46, 0);  // Ethernet padding is not part of the datagram
  auto header = parse_ipv4_header(wire);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->total_length, 28);
  EXPECT_EQ(header->identification, 0x4242);
  EXPECT_EQ(header->dst, pkt.dst);
  EXPECT_EQ(Ipv4Packet::decode(wire)->payload, pkt.payload);

  Bytes options = pkt.encode();
  options[0] = 0x46;
  set_header_checksum(options);
  EXPECT_EQ(parse_ipv4_header(options).error().message,
            "ipv4: options unsupported");
  EXPECT_EQ(Ipv4Packet::decode(options).error().message,
            "ipv4: options unsupported");
  Bytes truncated = pkt.encode();
  truncated.resize(27);
  EXPECT_EQ(parse_ipv4_header(truncated).error().message,
            "ipv4: bad total length");
}

TEST(IcmpCodec, EchoRoundTrip) {
  auto echo = make_echo_request(0x1234, 7, Bytes{9, 9});
  auto decoded = IcmpMessage::decode(echo.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, IcmpType::kEchoRequest);
  EXPECT_EQ(decoded->echo_id(), 0x1234);
  EXPECT_EQ(decoded->echo_seq(), 7);
}

TEST(IcmpCodec, TimeExceededQuotesOffendingPacket) {
  Ipv4Packet offending;
  offending.src = Ipv4Address(1, 1, 1, 1);
  offending.dst = Ipv4Address(2, 2, 2, 2);
  UdpDatagram udp;
  udp.src_port = 1000;
  udp.dst_port = 33434;
  offending.payload = udp.encode();
  auto error = make_time_exceeded(offending.encode());
  auto quoted = Ipv4Packet::decode(error.body);
  ASSERT_TRUE(quoted.ok());
  EXPECT_EQ(quoted->src, offending.src);
  auto quoted_udp = UdpDatagram::decode(quoted->payload);
  ASSERT_TRUE(quoted_udp.ok());
  EXPECT_EQ(quoted_udp->dst_port, 33434);
}

TEST(UdpCodec, RoundTrip) {
  UdpDatagram d;
  d.src_port = 1234;
  d.dst_port = 80;
  d.payload = Bytes{5, 6, 7};
  auto decoded = UdpDatagram::decode(d.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->src_port, 1234);
  EXPECT_EQ(decoded->dst_port, 80);
  EXPECT_EQ(decoded->payload, (Bytes{5, 6, 7}));
}

/// Two hosts on one link: ping resolves via ARP and gets an echo reply.
TEST(Host, PingAcrossLink) {
  sim::EventLoop loop;
  sim::Link link(&loop, sim::LinkConfig{});
  Host a(&loop, "a"), b(&loop, "b");
  a.add_attached_interface("eth0", mac(1), {Ipv4Address(10, 0, 0, 1), 24},
                           link, true);
  b.add_attached_interface("eth0", mac(2), {Ipv4Address(10, 0, 0, 2), 24},
                           link, false);

  bool got_reply = false;
  a.on_packet([&](const Ipv4Packet& pkt, int, const ether::EthernetFrame&) {
    auto msg = IcmpMessage::decode(pkt.payload);
    if (msg && msg->type == IcmpType::kEchoReply) got_reply = true;
  });
  EXPECT_TRUE(a.ping(Ipv4Address(10, 0, 0, 2), 1, 1));
  loop.run_for(Duration::seconds(1));
  EXPECT_TRUE(got_reply);
  // The ARP exchange populated both caches.
  EXPECT_TRUE(a.arp_cache(0).lookup(Ipv4Address(10, 0, 0, 2), loop.now()));
  EXPECT_TRUE(b.arp_cache(0).lookup(Ipv4Address(10, 0, 0, 1), loop.now()));
}

TEST(Host, SendFailsWithoutRoute) {
  sim::EventLoop loop;
  Host a(&loop, "a");
  Ipv4Packet pkt;
  pkt.dst = Ipv4Address(203, 0, 113, 1);
  EXPECT_FALSE(a.send_packet(std::move(pkt)));
  EXPECT_EQ(a.packets_dropped_no_route(), 1u);
}

struct Chain {
  // a -- r1 -- r2 -- b  (three /30-ish segments)
  sim::EventLoop loop;
  sim::Link l1{&loop, sim::LinkConfig{}};
  sim::Link l2{&loop, sim::LinkConfig{}};
  sim::Link l3{&loop, sim::LinkConfig{}};
  Host a{&loop, "a"}, r1{&loop, "r1"}, r2{&loop, "r2"}, b{&loop, "b"};

  Chain() {
    a.add_attached_interface("eth0", mac(1), {Ipv4Address(10, 0, 1, 1), 24},
                             l1, true);
    r1.add_attached_interface("eth0", mac(2), {Ipv4Address(10, 0, 1, 2), 24},
                              l1, false);
    r1.add_attached_interface("eth1", mac(3), {Ipv4Address(10, 0, 2, 1), 24},
                              l2, true);
    r2.add_attached_interface("eth0", mac(4), {Ipv4Address(10, 0, 2, 2), 24},
                              l2, false);
    r2.add_attached_interface("eth1", mac(5), {Ipv4Address(10, 0, 3, 1), 24},
                              l3, true);
    b.add_attached_interface("eth0", mac(6), {Ipv4Address(10, 0, 3, 2), 24},
                             l3, false);
    r1.set_forwarding(true);
    r2.set_forwarding(true);
    // Static routes toward both edges.
    a.routes().insert(Route{Ipv4Prefix(Ipv4Address(), 0),
                            Ipv4Address(10, 0, 1, 2), 0, 0});
    r1.routes().insert(Route{Ipv4Prefix(Ipv4Address(10, 0, 3, 0), 24),
                             Ipv4Address(10, 0, 2, 2), 1, 0});
    r2.routes().insert(Route{Ipv4Prefix(Ipv4Address(10, 0, 1, 0), 24),
                             Ipv4Address(10, 0, 2, 1), 0, 0});
    b.routes().insert(Route{Ipv4Prefix(Ipv4Address(), 0),
                            Ipv4Address(10, 0, 3, 1), 0, 0});
  }
};

TEST(Host, ForwardsAcrossTwoRouters) {
  Chain c;
  bool got_reply = false;
  c.a.on_packet([&](const Ipv4Packet& pkt, int, const ether::EthernetFrame&) {
    auto msg = IcmpMessage::decode(pkt.payload);
    if (msg && msg->type == IcmpType::kEchoReply) got_reply = true;
  });
  c.a.ping(Ipv4Address(10, 0, 3, 2), 1, 1);
  c.loop.run_for(Duration::seconds(2));
  EXPECT_TRUE(got_reply);
  EXPECT_GE(c.r1.packets_forwarded(), 1u);
  EXPECT_GE(c.r2.packets_forwarded(), 1u);
}

TEST(Host, TtlExpiryGeneratesTimeExceededFromIngressPrimary) {
  Chain c;
  std::optional<Ipv4Address> error_source;
  c.a.on_packet([&](const Ipv4Packet& pkt, int, const ether::EthernetFrame&) {
    auto msg = IcmpMessage::decode(pkt.payload);
    if (msg && msg->type == IcmpType::kTimeExceeded) error_source = pkt.src;
  });
  Ipv4Packet probe;
  probe.dst = Ipv4Address(10, 0, 3, 2);
  probe.ttl = 1;
  probe.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  UdpDatagram udp;
  udp.dst_port = 33434;
  probe.payload = udp.encode();
  c.a.send_packet(std::move(probe));
  c.loop.run_for(Duration::seconds(2));
  ASSERT_TRUE(error_source.has_value());
  // r1's ingress interface primary address.
  EXPECT_EQ(*error_source, Ipv4Address(10, 0, 1, 2));
  EXPECT_EQ(c.r1.icmp_ttl_exceeded_sent(), 1u);
}

TEST(Host, ForwardingKeepsTheDatagramAsSent) {
  // A UDP datagram with ECN CE, DF clear and a set identification, in a
  // padded, 802.1Q-tagged frame: the two routers change only its TTL and
  // checksum, and b receives it untagged and unpadded.
  Chain c;
  std::vector<ether::EthernetFrame> at_b;
  c.b.on_packet([&](const Ipv4Packet&, int, const ether::EthernetFrame& f) {
    at_b.push_back(f);
  });
  Ipv4Packet pkt;
  pkt.src = Ipv4Address(10, 0, 1, 1);
  pkt.dst = Ipv4Address(10, 0, 3, 2);
  pkt.identification = 0xbeef;
  pkt.payload = Bytes(8, 0x5a);
  Bytes sent = pkt.encode();
  sent[1] |= 0x3;  // ECN CE
  sent[6] = 0;     // DF clear
  set_header_checksum(sent);
  ether::EthernetFrame frame = ether::make_frame(
      mac(2), mac(1), ether::EtherType::kIpv4, sent);
  frame.has_vlan = true;
  frame.vlan_id = 42;
  frame.payload.resize(46, 0);
  c.a.interface(0).send(frame);
  c.loop.run_for(Duration::seconds(2));

  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_FALSE(at_b[0].has_vlan);
  EXPECT_EQ(at_b[0].src, mac(5));
  EXPECT_EQ(at_b[0].dst, mac(6));
  Bytes expected = sent;
  expected[8] -= 2;
  set_header_checksum(expected);
  EXPECT_EQ(at_b[0].payload, expected);
  EXPECT_EQ(c.r1.packets_forwarded(), 1u);
  EXPECT_EQ(c.r2.packets_forwarded(), 1u);
}

TEST(Traceroute, DiscoversHopChain) {
  Chain c;
  auto hops = traceroute(c.a, Ipv4Address(10, 0, 3, 2), 5);
  ASSERT_GE(hops.size(), 3u);
  ASSERT_TRUE(hops[0].responder.has_value());
  EXPECT_EQ(*hops[0].responder, Ipv4Address(10, 0, 1, 2));
  ASSERT_TRUE(hops[1].responder.has_value());
  EXPECT_EQ(*hops[1].responder, Ipv4Address(10, 0, 2, 2));
  // Final hop: the destination answers with port-unreachable... our model
  // delivers the UDP probe; hosts do not emit port unreachable, so the
  // destination hop is simply unanswered.
  EXPECT_FALSE(hops[0].reached_destination);
}

TEST(Host, ArpTimeoutDropsQueuedPackets) {
  sim::EventLoop loop;
  sim::Link link(&loop, sim::LinkConfig{});
  Host a(&loop, "a");
  a.add_attached_interface("eth0", mac(1), {Ipv4Address(10, 0, 0, 1), 24},
                           link, true);
  // Nothing attached on the other side: ARP will never resolve.
  Ipv4Packet pkt;
  pkt.dst = Ipv4Address(10, 0, 0, 99);
  EXPECT_TRUE(a.send_packet(std::move(pkt)));
  loop.run_for(Duration::seconds(3));
  // No crash, packet silently dropped after the 1s ARP timeout.
  SUCCEED();
}

}  // namespace
}  // namespace peering::ip
