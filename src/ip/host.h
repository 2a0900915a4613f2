// A complete little IPv4 host/router stack on top of NetIf: ARP resolution
// with pending-packet queues, local delivery, optional forwarding with TTL
// handling and ICMP error generation. Experiments, neighbor routers, and
// backbone compute nodes in the simulation are all Hosts; the vBGP router
// builds its specialized demultiplexing data plane from the same parts.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ether/arp.h"
#include "ether/netif.h"
#include "ip/icmp.h"
#include "ip/ipv4.h"
#include "ip/routing_table.h"
#include "sim/event_loop.h"

namespace peering::ip {

class Host {
 public:
  /// Invoked for packets addressed to this host. `in_if` is the index of the
  /// receiving interface; `frame` gives layer-2 context (vBGP experiments
  /// read the source MAC to attribute ingress traffic to a neighbor).
  using PacketHandler =
      std::function<void(const Ipv4Packet&, int in_if,
                         const ether::EthernetFrame& frame)>;

  Host(sim::EventLoop* loop, std::string name);
  virtual ~Host() = default;

  const std::string& name() const { return name_; }
  sim::EventLoop* loop() const { return loop_; }

  /// Creates an interface owned by this host and wires its frame handler.
  ether::NetIf& add_interface(const std::string& if_name, MacAddress mac);

  /// Convenience: creates an interface, assigns an address, attaches it to
  /// `link`, and installs the connected-subnet route. Returns the interface
  /// index.
  int add_attached_interface(const std::string& if_name, MacAddress mac,
                             ether::InterfaceAddress addr, sim::Link& link,
                             bool side_a, bool promiscuous = false);

  ether::NetIf& interface(int index) { return *interfaces_[index]; }
  const ether::NetIf& interface(int index) const { return *interfaces_[index]; }
  int interface_count() const { return static_cast<int>(interfaces_.size()); }
  /// Index of the interface with the given name, or -1.
  int interface_index(const std::string& if_name) const;

  RoutingTable& routes() { return routes_; }
  const RoutingTable& routes() const { return routes_; }

  /// Enables packet forwarding between interfaces (router behaviour).
  void set_forwarding(bool on) { forwarding_ = on; }

  void on_packet(PacketHandler handler) { packet_handler_ = std::move(handler); }

  /// Routes and transmits a locally originated packet. Returns false when no
  /// route exists or the egress interface is invalid.
  bool send_packet(Ipv4Packet packet);

  /// Sends an ICMP echo request to `dst` from this host's best source.
  bool ping(Ipv4Address dst, std::uint16_t id, std::uint16_t seq);

  /// True if any interface owns `addr`.
  bool owns_address(Ipv4Address addr) const;

  ether::ArpCache& arp_cache(int if_index) { return arp_caches_[if_index]; }

  std::uint64_t packets_forwarded() const { return packets_forwarded_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_dropped_no_route() const { return no_route_drops_; }
  std::uint64_t icmp_ttl_exceeded_sent() const { return ttl_exceeded_sent_; }

 protected:
  /// ARP input processing: answer requests for owned addresses, learn
  /// bindings, flush pending queues. Subclasses extend to answer for
  /// virtual next-hop addresses.
  virtual void handle_arp(int if_index, const ether::ArpMessage& msg);

  /// IPv4 input processing: local delivery or forwarding. `ip` is the
  /// header of the datagram that `wire` carries behind `eth`; the buffer is
  /// the received frame, which forwarding rewrites and sends on. Subclasses
  /// (the vBGP router) override to interpose on the data plane.
  virtual void handle_ipv4(int if_index, const ether::FrameHeader& eth,
                           const Ipv4Header& ip, Bytes& wire);

  /// The datagram in a received IPv4 frame: its header up to its total
  /// length, without Ethernet padding.
  static std::span<std::uint8_t> datagram(Bytes& wire,
                                          const ether::FrameHeader& eth,
                                          const Ipv4Header& ip) {
    return std::span<std::uint8_t>(wire).subspan(eth.header_length,
                                                 ip.total_length);
  }

  /// Emits `frame` (ether::kHeaderLength bytes for the Ethernet header,
  /// then an IPv4 datagram) out of `if_index` toward `gateway`: writes the header
  /// once `gateway` is resolved, queueing the frame while ARP resolution is
  /// in flight.
  void transmit(int if_index, Ipv4Address gateway, Bytes frame);

  /// Sends an ICMP error to `to` (the offending packet's source), sourced
  /// from the primary address of interface `in_if`.
  void send_icmp_error(int in_if, Ipv4Address to, const IcmpMessage& error);

  /// Emits a raw frame out of `if_index`.
  void send_frame(int if_index, const ether::EthernetFrame& frame);

  sim::EventLoop* loop_;
  std::string name_;

 private:
  /// Frame dispatch: ARP and IPv4 inputs, parsed in place.
  void handle_frame(int if_index, const ether::FrameHeader& eth, Bytes& wire);
  /// Forwards the datagram in `wire` using the main table.
  void forward(int in_if, const ether::FrameHeader& eth, const Ipv4Header& ip,
               Bytes& wire);
  void arp_resolve(int if_index, Ipv4Address target, Bytes frame);
  void flush_pending(int if_index, Ipv4Address resolved, MacAddress mac);
  void respond_echo(int if_index, const Ipv4Packet& packet);

  std::vector<std::unique_ptr<ether::NetIf>> interfaces_;
  std::vector<ether::ArpCache> arp_caches_;
  RoutingTable routes_;
  bool forwarding_ = false;
  PacketHandler packet_handler_;

  struct Pending {
    Bytes frame;  // as transmit() takes it
    SimTime queued_at;
  };
  std::map<std::pair<int, Ipv4Address>, std::deque<Pending>> pending_;

  std::uint64_t packets_forwarded_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t no_route_drops_ = 0;
  std::uint64_t ttl_exceeded_sent_ = 0;
};

}  // namespace peering::ip
