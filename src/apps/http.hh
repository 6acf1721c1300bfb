/**
 * @file
 * HTTP application models for the real-world benchmark (Section 5.2):
 *
 *  - HttpServerApp: an Nginx-like server answering GET requests with a
 *    fixed-size response (256 B including headers — the paper's size,
 *    chosen because Nginx's header alone exceeds 128 B). Each request
 *    charges the calibrated application and filesystem (vfs_read)
 *    budgets, plus — on Linux only — the kernel TCP budgets that
 *    Fig. 1a attributes to the stack.
 *  - HttpLoadGenApp: a wrk-like closed-loop generator with many
 *    concurrent connections, measuring request rate and latency
 *    percentiles (Figs. 10 and 12).
 */

#ifndef F4T_APPS_HTTP_HH
#define F4T_APPS_HTTP_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/socket_api.hh"
#include "sim/stats.hh"

namespace f4t::apps
{

struct HttpServerConfig
{
    std::uint16_t port = 80;
    std::size_t responseBytes = 256;
    /** Linux-only per-request kernel budgets (zero on F4T); the app
     *  and filesystem budgets are host::NginxCosts on both stacks. */
    double stackCyclesPerRequest = 0.0;
    double kernelCyclesPerRequest = 0.0;
};

class HttpServerApp
{
  public:
    HttpServerApp(SocketApi &api, const HttpServerConfig &config);

    void start();

    std::uint64_t requestsServed() const { return requestsServed_; }

  private:
    void onData(SocketApi::ConnId conn);
    void respond(SocketApi::ConnId conn);

    SocketApi &api_;
    HttpServerConfig config_;
    std::map<SocketApi::ConnId, std::string> partial_;
    std::vector<std::uint8_t> response_;
    std::uint64_t requestsServed_ = 0;
    std::vector<std::uint8_t> scratch_;
};

struct HttpLoadGenConfig
{
    net::Ipv4Address peer;
    std::uint16_t port = 80;
    std::size_t connections = 64;
    std::size_t responseBytes = 256;
    sim::Tick connectSpacing = sim::microsecondsToTicks(1);
    std::string target = "/index.html";
};

class HttpLoadGenApp
{
  public:
    HttpLoadGenApp(SocketApi &api, sim::Histogram *latency_us,
                   const HttpLoadGenConfig &config);

    void start();

    std::uint64_t responses() const { return responses_; }
    std::size_t connectedFlows() const { return connected_; }

  private:
    void connectNext(std::size_t index);
    void issue(SocketApi::ConnId conn);
    void onData(SocketApi::ConnId conn);

    SocketApi &api_;
    sim::Histogram *latency_;
    HttpLoadGenConfig config_;
    std::string request_;
    std::map<SocketApi::ConnId, std::size_t> awaiting_;
    std::map<SocketApi::ConnId, sim::Tick> sendTime_;
    std::size_t connected_ = 0;
    std::uint64_t responses_ = 0;
    std::vector<std::uint8_t> scratch_;
};

} // namespace f4t::apps

#endif // F4T_APPS_HTTP_HH
