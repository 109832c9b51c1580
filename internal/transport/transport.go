// Package transport owns the process-wide HTTP plumbing shared by every
// framework client: the SOAP gateway protocol, UDDI registry calls, UPnP
// control and description fetches, and event delivery.
//
// The seed rode http.DefaultClient, whose transport keeps only two idle
// connections per host — under scene fan-out or bridge-scaling load every
// gateway pair churned TCP connections on each call. The paper picked
// SOAP/HTTP for being "light-weight for network" (§4.1); a shared
// keep-alive transport makes the reproduction actually pay only the wire
// cost: one warm connection pool per peer gateway, sized for a federation
// of many middleware networks.
//
// Federation traffic is home-LAN-local by design (§3.1: gateways sit on
// the same residential network), so the transport deliberately skips
// proxy resolution.
package transport

import (
	"net"
	"net/http"
	"time"
)

// shared is the tuned transport behind every framework HTTP client.
var shared = &http.Transport{
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	// A gateway talks to every other gateway plus the repository; keep a
	// deep warm pool per peer so steady-state calls never redial.
	MaxIdleConns:          256,
	MaxIdleConnsPerHost:   64,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   5 * time.Second,
	ExpectContinueTimeout: time.Second,
}

// Shared returns the process-wide transport, for callers assembling their
// own http.Client (custom redirect policy, cookies).
func Shared() *http.Transport { return shared }
