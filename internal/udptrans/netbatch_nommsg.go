//go:build !linux || !(amd64 || arm64)

package udptrans

// gsoBatcher and mmsgBatcher are absent on platforms without the
// sendmmsg/recvmmsg fast paths (or whose msghdr layout the fast paths do
// not hardcode); selection falls through to the portable per-datagram
// batcher, and forcing REMICSS_NETBATCH=gso or =mmsg here fails loudly.
var gsoBatcher, mmsgBatcher *netBatcher

func gsoAvailable() bool  { return false }
func mmsgAvailable() bool { return false }
