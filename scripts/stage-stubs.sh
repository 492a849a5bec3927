#!/usr/bin/env bash
# Stages the committed `proptest` stand-in (third_party/stubs/) to
# /tmp/stubs, which is where .cargo/config.toml's [patch.crates-io]
# line points. A pre-staged /tmp/stubs (provided by the build
# environment) is left untouched; this only restores the directory when
# it is missing, so fresh containers can build the workspace without
# any network.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
if [ ! -e /tmp/stubs ]; then
    cp -r "$repo_root/third_party/stubs" /tmp/stubs
    echo "staged the proptest stand-in -> /tmp/stubs"
fi
