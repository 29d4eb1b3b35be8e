"""Set-up time of one workload, measured in a fresh interpreter.

Times importing the package (every module the workload calls) and building
its workload config, trace generator and cluster -- what each CLI
invocation pays before it does any work -- and prints both figures as one
JSON object.  Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED SCALE``.
"""

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (the timed import)

imported = time.perf_counter()
spec = workloads.WORKLOADS[sys.argv[1]][0]
seed, scale = int(sys.argv[2]), float(sys.argv[3])
generator = workloads.SyntheticTraceGenerator(spec.workload_config(seed, scale))
cluster = workloads.U1Cluster(spec.cluster_config(seed))
done = time.perf_counter()
print(json.dumps({"import_s": imported - started, "setup_s": done - started}))
