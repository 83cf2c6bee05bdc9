import pytest

from cli_inputs import write_inputs


@pytest.fixture(scope="session")
def files(tmp_path_factory):
    # name -> path of every file of cli_inputs.FILES, written once for the whole run
    return write_inputs(tmp_path_factory.mktemp("inputs"))
