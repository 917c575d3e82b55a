#!/bin/sh
# Pin the POTX_* environment to its defaults before exec'ing the
# wrapped command, so a developer's shell cannot perturb a golden
# capture.  Command-line flags still override (they take precedence
# over the environment in bin/potx.ml), which is how the --domains 4
# golden variant works without a special rule.
unset POTX_DOMAINS POTX_SHARD POTX_CACHE_MB POTX_FAULTS POTX_RETRIES \
      POTX_CACHE POTX_ENGINE POTX_TRACE POTX_METRICS POTX_PROFILE
exec "$@"
