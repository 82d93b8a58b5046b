// Launcher hooks for the remote (multi-host TCP) instantiation.
//
// The remote instantiation needs one OS process per non-root node; how those
// processes come to exist is the launcher's business, expressed as the
// RemoteOptions::spawn hook.  Three launchers cover the spectrum:
//
//  * default (no hook): fork the front-end process — single host, no
//    binaries, no ssh; this is what CI uses;
//  * exec_spawn: fork+exec a command (typically this very binary) with
//    `--tbon-node=<id> --tbon-bootstrap=<host:port>` appended; the launched
//    process calls maybe_run_remote_node early in main() and never returns;
//  * ssh_spawn: the same command line, wrapped in `ssh <host> ...` — the
//    MRNet-style remote instantiation (the paper uses rsh/ssh process
//    launch).  CI never takes this path; it exists so a real deployment
//    only swaps the hook.
#pragma once

#include <string>
#include <vector>

#include "core/network.hpp"
#include "transport/tcp.hpp"

namespace tbon::net {

/// Spawn hook that fork+execs `command` with `--tbon-node=<id>` and
/// `--tbon-bootstrap=<host:port>` appended.  The pids are recorded in a
/// process-global registry that Network::shutdown reaps.
std::function<void(const RemoteSpawnRequest&)> exec_spawn(
    std::vector<std::string> command);

/// Spawn hook that runs `command` (plus the same two flags) on the node's
/// placement host via `ssh_binary <host> <command...>`.  Requires
/// passwordless ssh and the binary present on the target host.
std::function<void(const RemoteSpawnRequest&)> ssh_spawn(
    std::vector<std::string> command, std::string ssh_binary = "ssh");

/// Node-process entry for exec/ssh launched binaries: when argv carries
/// `--tbon-node=<id>` and `--tbon-bootstrap=<host:port>`, runs the node
/// (never returns), with `backend_main` as the application body on back-end
/// nodes; otherwise returns false and main() proceeds as the front-end.
/// Call it before doing anything else expensive.
bool maybe_run_remote_node(int argc, const char* const* argv,
                           const std::function<void(BackEnd&)>& backend_main);

}  // namespace tbon::net
