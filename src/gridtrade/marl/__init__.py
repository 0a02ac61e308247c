"""Desk-scale recurrent multi-agent PPO with centralized critics."""
