#include "mergeable/server/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mergeable {

void ScopedFd::Reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::optional<TcpListener> TcpListener::Bind(uint16_t port,
                                             bool reuse_port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return std::nullopt;
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) !=
          0) {
    return std::nullopt;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return std::nullopt;
  }
  if (::listen(fd.get(), 128) != 0) return std::nullopt;
  if (!SetNonBlocking(fd.get())) return std::nullopt;

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return std::nullopt;
  }
  return TcpListener(std::move(fd), ntohs(bound.sin_port));
}

int TcpListener::Accept() {
  int client = ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
  if (client < 0) return -1;
  if (!SetNonBlocking(client)) {
    ::close(client);
    return -1;
  }
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return client;
}

int ConnectLoopback(uint16_t port, uint64_t timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

Epoll::Epoll() : fd_(::epoll_create1(EPOLL_CLOEXEC)) {}

namespace {

bool EpollCtl(int epfd, int op, int fd, uint64_t data, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = data;
  return ::epoll_ctl(epfd, op, fd, &ev) == 0;
}

}  // namespace

bool Epoll::Add(int fd, uint64_t data, bool want_write) {
  return EpollCtl(fd_.get(), EPOLL_CTL_ADD, fd, data, want_write);
}

bool Epoll::Mod(int fd, uint64_t data, bool want_write) {
  return EpollCtl(fd_.get(), EPOLL_CTL_MOD, fd, data, want_write);
}

bool Epoll::Del(int fd) {
  return ::epoll_ctl(fd_.get(), EPOLL_CTL_DEL, fd, nullptr) == 0;
}

std::vector<EpollEvent> Epoll::Wait(int timeout_ms) {
  epoll_event raw[64];
  int n = ::epoll_wait(fd_.get(), raw, 64, timeout_ms);
  std::vector<EpollEvent> events;
  if (n <= 0) return events;
  events.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EpollEvent ev;
    ev.data = raw[i].data.u64;
    ev.readable = (raw[i].events & EPOLLIN) != 0;
    ev.writable = (raw[i].events & EPOLLOUT) != 0;
    ev.closed =
        (raw[i].events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
    events.push_back(ev);
  }
  return events;
}

WakeFd::WakeFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}

void WakeFd::Signal() {
  uint64_t one = 1;
  ssize_t ignored = ::write(fd_.get(), &one, sizeof(one));
  (void)ignored;
}

void WakeFd::Drain() {
  // Without EFD_SEMAPHORE one read returns and clears the whole counter.
  uint64_t value = 0;
  ssize_t ignored = ::read(fd_.get(), &value, sizeof(value));
  (void)ignored;
}

}  // namespace mergeable
