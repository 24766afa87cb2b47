"""The repro.api facade, its knobs, and the package exports."""

import importlib
import pkgutil
import warnings

import pytest

import repro
from repro.api import AnalysisRequest, CampaignRequest, Pipeline
from repro.faults.fuzz import clean_trace_bytes
from repro.workloads.campaign import CampaignConfig, isp_quagga_config

#: ``repro`` and every package below it.
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.fixture(scope="module")
def clean_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("api") / "clean.pcap"
    path.write_bytes(clean_trace_bytes(table_prefixes=2_000, duration_s=60))
    return path


class TestPipelineAnalyze:
    def test_analyze_matches_engine(self, clean_pcap):
        from repro.analysis.tdat import analyze_pcap

        facade = Pipeline().analyze(clean_pcap)
        engine = analyze_pcap(clean_pcap)
        assert list(facade.analyses) == list(engine.analyses)
        assert facade.health.ok == engine.health.ok

    @pytest.mark.parametrize("knobs", [{"streaming": True}, {"workers": 2}])
    def test_execution_knobs_preserve_results(self, clean_pcap, knobs):
        base = Pipeline().analyze(clean_pcap)
        tuned = Pipeline(**knobs).analyze(clean_pcap)
        assert list(tuned.analyses) == list(base.analyses)

    def test_request_object_form(self, clean_pcap):
        report = Pipeline().run(AnalysisRequest(source=str(clean_pcap)))
        assert len(report) == 1

    def test_workers_zero_means_all_cpus(self):
        from repro.exec.pool import available_parallelism

        assert Pipeline(workers=0).workers == available_parallelism()

    def test_iter_analyze(self, clean_pcap):
        analyses = list(Pipeline().iter_analyze(clean_pcap))
        assert len(analyses) == 1

    def test_extract_bgp(self, clean_pcap):
        streams = Pipeline().extract_bgp(clean_pcap)
        assert len(streams) == 1

    def test_unknown_request_type_rejected(self):
        with pytest.raises(TypeError, match="not a pipeline request"):
            Pipeline().run(object())


class TestCampaignRequest:
    def test_resolve_by_name(self):
        config = CampaignRequest(name="ISP_A-Quagga", seed=9, transfers=4).resolve()
        assert isinstance(config, CampaignConfig)
        assert (config.seed, config.transfers) == (9, 4)

    def test_resolve_explicit_config_with_overrides(self):
        base = isp_quagga_config()
        config = CampaignRequest(
            config=base, transfers=2, overrides={"zero_bug_episodes": 0}
        ).resolve()
        assert config.transfers == 2
        assert config.zero_bug_episodes == 0
        assert base.transfers != 2  # original untouched

    def test_needs_exactly_one_of_name_or_config(self):
        with pytest.raises(ValueError):
            CampaignRequest().resolve()
        with pytest.raises(ValueError):
            CampaignRequest(name="RV", config=isp_quagga_config()).resolve()


class TestPackageExports:
    """Every name a package's ``__all__`` promises resolves, silently."""

    @pytest.mark.parametrize("package", PACKAGES)
    def test_star_import_resolves_every_name(self, package):
        module = importlib.import_module(package)
        scope: dict = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exec(f"from {package} import *", scope)  # noqa: S102
        missing = [name for name in module.__all__ if name not in scope]
        assert not missing, f"{package}.__all__ names unresolved: {missing}"
