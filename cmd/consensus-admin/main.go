// Command consensus-admin operates a live cluster's membership and
// inspects its replication state over the client wire protocol:
//
//	consensus-admin -addrs 127.0.0.1:7000,127.0.0.1:7001 status
//	consensus-admin -addrs ... add-node 3 127.0.0.1:7003
//	consensus-admin -addrs ... remove-node 0
//
// status queries every address and prints one JSON document per node.
// add-node/remove-node broadcast to every address — each node learns
// the joiner's address, and whichever node leads a shard group submits
// the config change through consensus. Membership commits
// asynchronously: poll status until the member set reflects the change.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"flag"

	"fortyconsensus/internal/live"
	"fortyconsensus/internal/types"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: consensus-admin -addrs a,b,c status | add-node <id> <addr> | remove-node <id>")
	os.Exit(2)
}

func main() {
	var (
		addrsFlag = flag.String("addrs", "", "comma-separated node addresses to contact (host:port or id=host:port)")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-node request timeout")
	)
	flag.Parse()
	if *addrsFlag == "" || flag.NArg() < 1 {
		usage()
	}
	// Every address is contacted directly, so the id= of an
	// id=host:port entry (consensus-load's form) is accepted and unused.
	addrs, _, err := live.ParseAddrs(*addrsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-admin: %v\n", err)
		os.Exit(2)
	}

	switch flag.Arg(0) {
	case "status":
		ok := 0
		for _, a := range addrs {
			resp, err := live.AdminCall(a, live.AdminStatusOp(), *timeout)
			if err != nil {
				fmt.Printf("%s\tunreachable: %v\n", a, err)
				continue
			}
			if resp.Status != live.StatusOK {
				fmt.Printf("%s\tstatus %d: %s\n", a, resp.Status, resp.Result)
				continue
			}
			fmt.Printf("%s\t%s\n", a, indented(resp.Result))
			ok++
		}
		if ok == 0 {
			os.Exit(1)
		}
	case "add-node":
		if flag.NArg() != 3 {
			usage()
		}
		id := parseID(flag.Arg(1))
		broadcast(addrs, live.AdminAddNodeOp(id, flag.Arg(2)), *timeout)
	case "remove-node":
		if flag.NArg() != 2 {
			usage()
		}
		id := parseID(flag.Arg(1))
		broadcast(addrs, live.AdminRemoveNodeOp(id), *timeout)
	default:
		usage()
	}
}

func parseID(s string) types.NodeID {
	id, err := strconv.ParseInt(s, 10, 64)
	if err != nil || id < 0 {
		fmt.Fprintf(os.Stderr, "consensus-admin: bad node id %q\n", s)
		os.Exit(2)
	}
	return types.NodeID(id)
}

// broadcast sends op to every address; success requires at least one
// node to have submitted the config change through a group it leads.
func broadcast(addrs []string, op []byte, timeout time.Duration) {
	submitted := 0
	for _, a := range addrs {
		resp, err := live.AdminCall(a, op, timeout)
		if err != nil {
			fmt.Printf("%s\tunreachable: %v\n", a, err)
			continue
		}
		if resp.Status != live.StatusOK {
			fmt.Printf("%s\tstatus %d: %s\n", a, resp.Status, resp.Result)
			continue
		}
		var res live.AdminConfResult
		if err := json.Unmarshal(resp.Result, &res); err != nil {
			fmt.Printf("%s\tundecodable reply: %v\n", a, err)
			continue
		}
		fmt.Printf("%s\tsubmitted on %d/%d groups\n", a, res.Submitted, res.Groups)
		submitted += res.Submitted
	}
	if submitted == 0 {
		fmt.Fprintln(os.Stderr, "consensus-admin: no contacted node leads any group; change not submitted")
		os.Exit(1)
	}
}

// indented pretty-prints one status JSON blob for the terminal.
func indented(raw []byte) string {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return string(raw)
	}
	out, err := json.MarshalIndent(v, "\t", "  ")
	if err != nil {
		return string(raw)
	}
	return string(out)
}
