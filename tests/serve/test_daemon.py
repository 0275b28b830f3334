"""End-to-end daemon tests: real sockets, real worker processes.

One module-scoped daemon (2 workers, private cache dir) serves every
test here; each test drives it through the public clients only.
"""

import json

import pytest

from repro.serve import ServeClient, ServeConfig, ServeDaemon, ServeError

SPIN = "mov r1, #60\nloop:\nsubs r1, r1, #1\nbne loop\nhalt"


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    config = ServeConfig(port=0, workers=2,
                         cache_dir=tmp_path_factory.mktemp("cache"),
                         debug=True)
    d = ServeDaemon(config)
    port = d.start_background()
    yield d, port
    d.stop_background()


@pytest.fixture()
def client(daemon):
    _, port = daemon
    with ServeClient(port=port, timeout_s=60) as c:
        yield c


class TestSimulate:
    def test_named_workload(self, client):
        reply = client.simulate(suite="ml", bench="pool0",
                                core="small", mode="baseline", scale=3)
        assert reply["api"] == 1 and reply["kind"] == "simulate"
        assert reply["result"]["cycles"] > 0
        assert reply["result"]["workload"] == "ml/pool0"
        assert reply["served"] in ("worker", "coalesced")

    def test_repeat_is_served_from_lru(self, client):
        body = dict(suite="ml", bench="pool0", core="small",
                    mode="redsoc", scale=3)
        first = client.simulate(**body)
        again = client.simulate(**body)
        assert again["served"] == "lru"
        assert again["result"]["cycles"] == first["result"]["cycles"]

    def test_inline_asm(self, client):
        reply = client.simulate(asm=SPIN, core="small", mode="baseline")
        assert reply["result"]["workload"] == "spin" or \
            reply["result"]["workload"] == "inline"
        assert reply["result"]["cycles"] > 0

    def test_inline_asm_exact_cycles_across_requests(self, client):
        # bit-identical replies: the cache fast path returns the same
        # cycle count the cold path computed
        a = client.simulate(asm=SPIN, core="small", mode="redsoc")
        b = client.simulate(asm=SPIN, core="small", mode="redsoc")
        assert a["result"]["cycles"] == b["result"]["cycles"]

    def test_bad_asm_is_400_not_500(self, client):
        with pytest.raises(ServeError) as err:
            client.simulate(asm="frobnicate r1\nhalt",
                            core="small", mode="baseline")
        assert err.value.status == 400
        assert err.value.code == "bad-asm"

    def test_program_falling_off_its_end_is_400_not_500(self, client):
        with pytest.raises(ServeError) as err:
            client.simulate(asm="mov r1, #1\nb end\nhalt\n"
                                "end: add r1, r1, #1\n",
                            core="small", mode="baseline")
        assert (err.value.status, err.value.code) == (400, "bad-asm")

    def test_unknown_suite_is_400(self, client):
        with pytest.raises(ServeError) as err:
            client.simulate(suite="nope", bench="x",
                            core="small", mode="baseline")
        assert err.value.status == 400

    @pytest.mark.parametrize("bad", [
        {"op": "ADD", "rn": "r1", "imm": 1},              # no rd
        {"op": "ADD", "rd": "r2", "rn": "r1", "imm": "x"},  # str imm
    ])
    def test_malformed_program_form_is_400_not_500(self, client, bad):
        program = {"name": "bad", "instructions": [
            {"op": "MOV", "rd": "r1", "imm": 3}, bad, {"op": "HALT"}]}
        with pytest.raises(ServeError) as err:
            client.simulate(program=program, core="small",
                            mode="baseline")
        assert (err.value.status, err.value.code) == (400, "bad-program")
        assert "pc 1" in str(err.value)

    def test_well_formed_program_form(self, client):
        program = {"name": "ok", "instructions": [
            {"op": "MOV", "rd": "r1", "imm": 3},
            {"op": "ADD", "rd": "r2", "rn": "r1", "imm": 1},
            {"op": "HALT"}]}
        reply = client.simulate(program=program, core="small",
                                mode="baseline")
        assert reply["result"]["cycles"] > 0


    @pytest.mark.parametrize("engine", ["fast", "vector"])
    def test_removed_engine_is_400(self, client, engine):
        with pytest.raises(ServeError) as err:
            client.simulate(suite="ml", bench="pool0", scale=3,
                            core="small", mode="baseline", engine=engine)
        assert (err.value.status, err.value.code) == \
            (400, "unknown-engine")
        assert "'reference'" in str(err.value)
        assert "'compiled'" in str(err.value)


class TestSweep:
    def test_grid_with_speedups(self, client):
        reply = client.sweep(suite="ml", bench="pool0", scale=3,
                             cores=["small"],
                             modes=["baseline", "redsoc"])
        jobs = reply["result"]["jobs"]
        assert [(j["core"], j["mode"]) for j in jobs] == \
            [("small", "baseline"), ("small", "redsoc")]
        assert "speedup" in jobs[1]

    def test_compiled_sweep_fans_out_per_payload(self, client):
        # an engine-pinned sweep fans out like an unpinned one, and
        # its jobs share the unpinned jobs' cache keys (keys carry
        # semantics only; engines are a performance choice)
        reply = client.sweep(suite="ml", bench="pool0", scale=3,
                             cores=["small"],
                             modes=["baseline", "redsoc"],
                             engine="compiled")
        jobs = reply["result"]["jobs"]
        assert [(j["core"], j["mode"]) for j in jobs] == \
            [("small", "baseline"), ("small", "redsoc")]
        assert [j["engine"] for j in jobs] == ["compiled", "compiled"]
        assert "speedup" in jobs[1]
        plain = client.sweep(suite="ml", bench="pool0", scale=3,
                             cores=["small"],
                             modes=["baseline", "redsoc"])
        assert [(j["key"], j["cycles"]) for j in jobs] == \
            [(j["key"], j["cycles"]) for j in plain["result"]["jobs"]]


class TestVerify:
    def test_seeded_batch(self, client):
        reply = client.verify(seed=11, budget=3, metamorphic=False)
        assert reply["result"]["ok"] is True
        assert reply["result"]["programs_run"] == 3

    def test_deterministic_across_requests(self, client):
        a = client.verify(seed=12, budget=3, metamorphic=False)
        b = client.verify(seed=12, budget=3, metamorphic=False)
        assert a["result"]["coverage"] == b["result"]["coverage"]


class TestOps:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok"}

    def test_status_shape(self, client):
        status = client.status()
        assert status["status"] == "ok"
        assert status["queue"]["max_depth"] == 256
        assert len(status["workers"]["pids"]) == 2
        assert status["uptime_s"] >= 0

    def test_metrics_exposition(self, client):
        client.simulate(suite="ml", bench="pool0", core="small",
                        mode="baseline", scale=3)
        text = client.metrics_text()
        assert "# TYPE redsoc_serve_requests_total counter" in text
        assert "redsoc_serve_admitted" in text
        assert "# TYPE redsoc_serve_latency_us histogram" in text
        assert 'redsoc_serve_latency_us_bucket{le="+Inf"}' in text
        assert "redsoc_serve_latency_us_sum" in text
        assert "redsoc_serve_latency_us_count" in text
        assert "redsoc_serve_uptime_seconds" in text

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.request("GET", "/nope")
        assert err.value.status == 404

    def test_get_on_post_endpoint_is_405(self, client):
        with pytest.raises(ServeError) as err:
            client.request("GET", "/v1/simulate")
        assert err.value.status == 405

    def test_non_json_body_is_400(self, client):
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", client.port)
        conn.request("POST", "/v1/simulate", body=b"not json",
                     headers={"content-type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"] == "bad-request"


class TestDeadlines:
    def test_tiny_deadline_times_out_cleanly(self, daemon):
        _, port = daemon
        with ServeClient(port=port, max_retries=0) as c:
            with pytest.raises(ServeError) as err:
                c.simulate(asm=SPIN.replace("#60", "#20000"),
                           core="small", mode="mos",
                           deadline_ms=50)
            assert err.value.status == 504
            assert err.value.code == "deadline-exceeded"
