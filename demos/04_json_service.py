"""Drive the JSON service end to end from one process.

Starts the HTTP server on a spare port, posts a metrics request, fetches a
spin-spin matrix through the query endpoint, and confirms the responses equal
direct library calls bit for bit.
"""

import json
import threading
import urllib.request

from zalmsim import SourceParams, pgen, spin_spin_dm
from zalmsim.server import build_server

httpd = build_server("127.0.0.1", 0)
port = httpd.server_address[1]
threading.Thread(target=httpd.serve_forever, daemon=True).start()
base = f"http://127.0.0.1:{port}"
print(f"service up at {base}")

health = json.loads(urllib.request.urlopen(f"{base}/v1/health").read())
print("health:", health)

request = {"mean_photon": 0.1, "bsm_efficiency": 0.8}
req = urllib.request.Request(
    f"{base}/v1/metrics", data=json.dumps(request).encode(),
    headers={"Content-Type": "application/json"}, method="POST",
)
payload = json.loads(urllib.request.urlopen(req).read())
print("metrics response:", json.dumps(payload, indent=2))

library = pgen(SourceParams(mean_photon=0.1, eta_b=0.8)).value
print("pgen equals the library call bit-exactly:", payload["pgen"] == library)

dm_payload = json.loads(urllib.request.urlopen(f"{base}/v1/spin_dm?mean_photon=0.1&bsm_efficiency=0.8").read())
dm = spin_spin_dm(SourceParams(mean_photon=0.1, eta_b=0.8))
print("spin_dm[0][0] matches:", dm_payload["spin_dm"][0][0][0] == dm.entries[0, 0])

httpd.shutdown()
httpd.server_close()
