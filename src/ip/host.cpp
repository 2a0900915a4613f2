#include "ip/host.h"

#include "netbase/log.h"

namespace peering::ip {

Host::Host(sim::EventLoop* loop, std::string name)
    : loop_(loop), name_(std::move(name)) {}

ether::NetIf& Host::add_interface(const std::string& if_name, MacAddress mac) {
  auto nif = std::make_unique<ether::NetIf>(name_ + "/" + if_name, mac);
  int index = static_cast<int>(interfaces_.size());
  nif->on_frame([this, index](const ether::FrameHeader& eth, Bytes& wire) {
    handle_frame(index, eth, wire);
  });
  interfaces_.push_back(std::move(nif));
  arp_caches_.emplace_back();
  return *interfaces_.back();
}

int Host::add_attached_interface(const std::string& if_name, MacAddress mac,
                                 ether::InterfaceAddress addr, sim::Link& link,
                                 bool side_a, bool promiscuous) {
  auto& nif = add_interface(if_name, mac);
  nif.add_address(addr);
  nif.set_promiscuous(promiscuous);
  nif.attach(link, side_a);
  int index = interface_count() - 1;
  routes_.insert(Route{addr.subnet(), Ipv4Address(), index, 0});
  return index;
}

int Host::interface_index(const std::string& if_name) const {
  const std::string full = name_ + "/" + if_name;
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    if (interfaces_[i]->name() == full || interfaces_[i]->name() == if_name)
      return static_cast<int>(i);
  }
  return -1;
}

bool Host::owns_address(Ipv4Address addr) const {
  for (const auto& nif : interfaces_)
    if (nif->owns_address(addr)) return true;
  return false;
}

bool Host::send_packet(Ipv4Packet packet) {
  auto route = routes_.lookup(packet.dst);
  if (!route || route->interface < 0 ||
      route->interface >= interface_count()) {
    ++no_route_drops_;
    return false;
  }
  if (packet.src.is_zero())
    packet.src = interface(route->interface).primary_address();
  Ipv4Address gateway =
      route->next_hop.is_zero() ? packet.dst : route->next_hop;
  transmit(route->interface, gateway, packet.encode(ether::kHeaderLength));
  return true;
}

bool Host::ping(Ipv4Address dst, std::uint16_t id, std::uint16_t seq) {
  Ipv4Packet pkt;
  pkt.protocol = static_cast<std::uint8_t>(IpProto::kIcmp);
  pkt.dst = dst;
  pkt.payload = make_echo_request(id, seq, {}).encode();
  return send_packet(std::move(pkt));
}

void Host::handle_frame(int if_index, const ether::FrameHeader& eth,
                        Bytes& wire) {
  const auto payload =
      std::span<const std::uint8_t>(wire).subspan(eth.header_length);
  if (eth.ethertype == static_cast<std::uint16_t>(ether::EtherType::kArp)) {
    auto msg = ether::ArpMessage::decode(payload);
    if (msg) handle_arp(if_index, *msg);
    return;
  }
  if (eth.ethertype == static_cast<std::uint16_t>(ether::EtherType::kIpv4)) {
    auto ip = parse_ipv4_header(payload);
    if (ip) {
      handle_ipv4(if_index, eth, *ip, wire);
    } else {
      LOG_WARN("host", name_ << ": malformed IPv4: " << ip.error().message);
    }
  }
}

void Host::handle_arp(int if_index, const ether::ArpMessage& msg) {
  auto& nif = interface(if_index);
  // Learn the sender binding opportunistically.
  if (!msg.sender_ip.is_zero()) {
    arp_caches_[if_index].learn(msg.sender_ip, msg.sender_mac, loop_->now());
    flush_pending(if_index, msg.sender_ip, msg.sender_mac);
  }
  if (msg.op == ether::ArpOp::kRequest && nif.owns_address(msg.target_ip)) {
    auto reply = ether::make_arp_reply(msg, nif.mac(), msg.target_ip);
    send_frame(if_index, ether::make_frame(msg.sender_mac, nif.mac(),
                                           ether::EtherType::kArp,
                                           reply.encode()));
  }
}

void Host::handle_ipv4(int if_index, const ether::FrameHeader& eth,
                       const Ipv4Header& ip, Bytes& wire) {
  if (owns_address(ip.dst)) {
    ++packets_delivered_;
    auto packet = Ipv4Packet::decode(datagram(wire, eth, ip));
    if (packet->protocol == static_cast<std::uint8_t>(IpProto::kIcmp)) {
      respond_echo(if_index, *packet);
    }
    if (packet_handler_)
      packet_handler_(*packet, if_index, *ether::EthernetFrame::decode(wire));
    return;
  }
  if (!forwarding_) return;
  forward(if_index, eth, ip, wire);
}

void Host::respond_echo(int if_index, const Ipv4Packet& packet) {
  auto msg = IcmpMessage::decode(packet.payload);
  if (!msg || msg->type != IcmpType::kEchoRequest) return;
  Ipv4Packet reply = wrap_icmp(make_echo_reply(*msg), packet.dst, packet.src);
  (void)if_index;
  send_packet(std::move(reply));
}

void Host::forward(int in_if, const ether::FrameHeader& eth,
                   const Ipv4Header& ip, Bytes& wire) {
  const auto dgram = datagram(wire, eth, ip);
  if (ip.ttl <= 1) {
    ++ttl_exceeded_sent_;
    send_icmp_error(in_if, ip.src, make_time_exceeded(dgram));
    return;
  }
  decrement_ttl(dgram);
  auto route = routes_.lookup(ip.dst);
  if (!route || route->interface < 0 ||
      route->interface >= interface_count()) {
    ++no_route_drops_;
    send_icmp_error(in_if, ip.src, make_unreachable(dgram, 0));
    return;
  }
  ++packets_forwarded_;
  Ipv4Address gateway = route->next_hop.is_zero() ? ip.dst : route->next_hop;
  ether::untag_and_trim(wire, eth, ip.total_length);
  transmit(route->interface, gateway, std::move(wire));
}

void Host::send_icmp_error(int in_if, Ipv4Address to,
                           const IcmpMessage& error) {
  // RFC 1812: source the error from the interface the offending packet
  // arrived on — its primary address. PEERING's network controller exists
  // in part to keep this address correct (§5).
  Ipv4Address src = interface(in_if).primary_address();
  if (src.is_zero()) return;
  send_packet(wrap_icmp(error, src, to));
}

void Host::transmit(int if_index, Ipv4Address gateway, Bytes frame) {
  auto mac = arp_caches_[if_index].lookup(gateway, loop_->now());
  if (!mac) {
    arp_resolve(if_index, gateway, std::move(frame));
    return;
  }
  auto& nif = interface(if_index);
  ether::write_header(frame, *mac, nif.mac(), ether::EtherType::kIpv4);
  nif.send(std::move(frame));
}

void Host::arp_resolve(int if_index, Ipv4Address target, Bytes frame) {
  auto key = std::make_pair(if_index, target);
  bool first = pending_[key].empty();
  pending_[key].push_back({std::move(frame), loop_->now()});
  if (!first) return;  // a request is already in flight

  auto& nif = interface(if_index);
  auto request =
      ether::make_arp_request(nif.mac(), nif.primary_address(), target);
  send_frame(if_index,
             ether::make_frame(MacAddress::broadcast(), nif.mac(),
                               ether::EtherType::kArp, request.encode()));

  // Drop queued packets if resolution does not complete within 1s.
  loop_->schedule_after(Duration::seconds(1), [this, key]() {
    auto it = pending_.find(key);
    if (it != pending_.end() && !it->second.empty()) {
      LOG_DEBUG("host", name_ << ": ARP timeout for " << key.second.str()
                              << ", dropping " << it->second.size()
                              << " packets");
      pending_.erase(it);
    }
  });
}

void Host::flush_pending(int if_index, Ipv4Address resolved, MacAddress mac) {
  auto it = pending_.find(std::make_pair(if_index, resolved));
  if (it == pending_.end()) return;
  auto queue = std::move(it->second);
  pending_.erase(it);
  auto& nif = interface(if_index);
  for (auto& entry : queue) {
    ether::write_header(entry.frame, mac, nif.mac(), ether::EtherType::kIpv4);
    nif.send(std::move(entry.frame));
  }
}

void Host::send_frame(int if_index, const ether::EthernetFrame& frame) {
  interface(if_index).send(frame);
}

}  // namespace peering::ip
